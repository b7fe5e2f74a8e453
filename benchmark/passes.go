package main

// The budgeted pass loop census-720 and place-anneal share. Each of
// them repeats one pass (a fleet run; a three-part set) until its time
// budget is spent, and reports medians over the passes.

import (
	"fmt"
	"time"
)

// pass is one finished pass of a repeated workload, its outputs still
// held.
type pass interface {
	// opsMS returns the latencies of the pass's unit operations in ms.
	opsMS() []float64
	// check runs the correctness checks on the pass's outputs and
	// counts its operations into out.
	check(out *outcome)
	// release keeps what the report needs and drops the outputs, so
	// the live heap does not grow with the number of passes.
	release() error
}

// passStats is what the loop measures around one pass.
type passStats struct {
	wall, cpu           time.Duration
	gcCycles, gcPauseMS float64 // the runtime's collections during the pass
	heapMB              float64 // live-heap high-water mark
	ops                 int
	opP50, opTail       float64 // unit-operation latency, ms
	tailLabel           string
}

// repeatPasses calls run until budget has elapsed, at least minPasses
// times. It measures each pass, then checks it into out and releases
// it.
func repeatPasses[P pass](out *outcome, budget time.Duration, minPasses int, run func(i int) (P, error)) ([]P, passSeries, error) {
	var got []P
	var stats passSeries
	start := time.Now()
	for len(got) < minPasses || fits(start, len(got), budget) {
		heap := watchHeap()
		c0, p0 := gcCounters()
		cpu0, t0 := cpuTime(), time.Now()
		p, err := run(len(got))
		st := passStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
		c1, p1 := gcCounters()
		st.heapMB = heap.stopMB()
		if err != nil {
			return nil, nil, err
		}
		st.gcCycles, st.gcPauseMS = c1-c0, p1-p0
		ops := p.opsMS()
		var ok bool
		st.ops, st.opP50 = len(ops), median(ops)
		if st.opTail, st.tailLabel, ok = tail(ops); !ok {
			return nil, nil, fmt.Errorf("only %d operations in a pass", len(ops))
		}
		p.check(out)
		if err := p.release(); err != nil {
			return nil, nil, err
		}
		got = append(got, p)
		stats = append(stats, st)
	}
	return got, stats, nil
}

// passSeries is the measurements of a run's passes.
type passSeries []passStats

// of returns one measurement of every pass.
func (s passSeries) of(f func(passStats) float64) []float64 {
	xs := make([]float64, len(s))
	for i, p := range s {
		xs[i] = f(p)
	}
	return xs
}

func (s passSeries) walls() []float64 {
	return s.of(func(p passStats) float64 { return p.wall.Seconds() })
}

// ops returns the medians over the passes of the per-pass median and
// tail unit-operation latencies.
func (s passSeries) ops() (p50, tailMS float64) {
	return median(s.of(func(p passStats) float64 { return p.opP50 })),
		median(s.of(func(p passStats) float64 { return p.opTail }))
}

// addCommon adds the metrics both repeated workloads measure the same
// way. unit names one pass in the notes.
func (s passSeries) addCommon(m *metricSet, unit string) {
	cpus := s.of(func(p passStats) float64 { return p.cpu.Seconds() })
	heaps := s.of(func(p passStats) float64 { return p.heapMB })
	m.add("cpu_s", "s", median(cpus), len(s), "process CPU per "+unit)
	m.add("peak_heap_mb", "MB", median(heaps), len(s), fmt.Sprintf("live-heap high-water mark of a %s, read after every collection; per %s %s", unit, unit, fmtList(heaps)))
	m.add("go.gc_cycles", "count", mean(s.of(func(p passStats) float64 { return p.gcCycles })), len(s), "per "+unit)
	m.add("go.gc_pause_ms", "ms", mean(s.of(func(p passStats) float64 { return p.gcPauseMS })), len(s), "per "+unit)
	m.add("par.utilization", "ratio", sum(cpus)/(sum(s.walls())*float64(gomaxprocs())), len(s), fmt.Sprintf("cpu / (wall x GOMAXPROCS=%d)", gomaxprocs()))
}
