// Command benchmark is the repository's end-to-end benchmark. It drives
// the engines from outside, through the public functions of the
// internal packages, on three workloads:
//
//   - census-720: a sweepd-style fleet census of every ordered
//     canonical (shape, kind) pair of size 720, journaled and merged;
//   - place-anneal: a placement census of size 36 plus two large
//     annealed placement searches;
//   - placed-mix: an open-loop request mix against the placed service.
//
// Usage (from the repository root, normally through run.sh):
//
//	benchmark --workload census-720 --seed 1 --seconds 30 --trace 0
//
// Every run checks the engines' outputs and prints a human-readable
// report followed by one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The end-to-end
// metric names are shared by all workloads; each workload fills them
// as described in metrics.go and README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// opts is one run's configuration.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// toy shrinks every workload to a seconds-long smoke (tests only).
	toy bool
	// work is the directory the run may write to; it is removed at
	// the end. traceDir receives the traced run's spans.
	work, traceDir string
	// report receives the human-readable report lines.
	report io.Writer
}

// outcome is what a workload hands back: the metric set the run prints
// and the operation accounting.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	// problems lists every failed correctness check; any entry fails
	// the run.
	problems []string
}

var workloads = map[string]func(opts) (*outcome, error){
	"census-720":   runCensus,
	"place-anneal": runPlace,
	"placed-mix":   runPlaced,
}

func main() {
	workload := flag.String("workload", "", "census-720, place-anneal or placed-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload census-720|place-anneal|placed-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, report: os.Stdout,
		traceDir: filepath.Join(".bench_build", "traces")}
	if err := execute(*workload, run, o, filepath.Join(".bench_build", "work")); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// execute runs one workload in a fresh work directory under base and
// prints its report and result line.
func execute(name string, run func(opts) (*outcome, error), o opts, base string) error {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work
	start := time.Now()
	out, err := run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", name, p)
	}
	fmt.Fprintf(o.report, "# %s seed=%d trace=%t wall=%.1fs attempted=%d failed=%d\n",
		name, o.seed, o.trace, time.Since(start).Seconds(), out.attempted, out.failed)
	fmt.Fprintf(o.report, "# %s nproc=%d GOMAXPROCS=%d\n", runtime.Version(), runtime.NumCPU(), gomaxprocs())
	out.metrics.print(o.report)
	decl, zeroOK := endToEnd, false
	if o.trace {
		decl, zeroOK = perLayer, true
	}
	metrics, err := out.metrics.result(decl, zeroOK)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(resultLine{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.report, string(line))
	if len(out.problems) > 0 {
		return errors.New("correctness checks failed")
	}
	return nil
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}
