package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a tail metric may report, highest
// first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile applies the reporting rule for tails: the highest
// percentile with at least ten samples beyond it. ok is false when not
// even the median qualifies (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		// The epsilon absorbs the rounding of 100-p (100-99.9 is not
		// exactly 0.1).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the tail percentile of xs under the reporting rule and
// its label, e.g. "p99".
func tail(xs []float64) (v float64, label string, ok bool) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return 0, "", false
	}
	return quantile(xs, p/100), fmt.Sprintf("p%g", p), true
}

// mean returns the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sum adds up xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// fmtList renders samples compactly for report notes.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

// fits reports whether another pass, taking as long as the mean of the
// done passes since start, still ends within budget.
func fits(start time.Time, done int, budget time.Duration) bool {
	el := time.Since(start)
	return el+el/time.Duration(done) <= budget
}
