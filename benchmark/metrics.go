package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order. All workloads share the names;
// what each one measures:
//
//	setup_s         median of the workload's repeated set-ups
//	cpu_s           process CPU per pass (census-720: one fleet run;
//	                place-anneal: one three-part set; placed-mix: one
//	                second of offered load)
//	peak_heap_mb    live-heap high-water mark of a pass, read after
//	                every collection (median over passes; placed-mix:
//	                the load window)
//	job_s           median time a caller waits for a finished result
//	                (census-720: fleet run; place-anneal: set;
//	                placed-mix: wait=true request until the searched tier)
//	op_p50_ms       median latency of the workload's unit operation
//	                (census-720: pair; place-anneal: search; placed-mix:
//	                warm request)
//	score_sum       sum of the objective scores (dilation + peak link
//	                load) of the placements the workload produces
//	wirelength_sum  sum over those placements of avg dilation x |E|
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
	{"job_s", "s"},
	{"op_p50_ms", "ms"},
	{"score_sum", "score"},
	{"wirelength_sum", "hops"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer a workload does not call reports 0. The
// tails of the unit operations (census.pair_tail_ms,
// place.search_tail_ms, placed.warm_p99_ms) are here rather than end to
// end: on a 2-vCPU VM they follow scheduler preemption and CPU steal,
// and spread between runs by more than any end-to-end bound allows.
var perLayer = []struct{ name, unit string }{
	// census-720
	{"core.construct_s", "s"},
	{"core.construct_calls", "count"},
	{"embed.materialize_s", "s"},
	{"embed.tables", "count"},
	{"embed.verify_s", "s"},
	{"grid.dilation_s", "s"},
	{"grid.edges", "count"},
	{"netsim.congestion_s", "s"},
	{"netsim.routed_hops", "count"},
	{"census.self_s", "s"},
	{"census.pair_tail_ms", "ms"},
	{"census.journal_s", "s"},
	{"census.encode_s", "s"},
	{"census.artifact_bytes", "bytes"},
	{"driver.self_s", "s"},
	{"driver.attempts", "count"},
	{"par.utilization", "ratio"},
	{"par.speedup", "ratio"},
	// place-anneal
	{"place.search_s", "s"},
	{"place.search_calls", "count"},
	{"place.score_s", "s"},
	{"place.search_tail_ms", "ms"},
	{"place.anneal_s", "s"},
	{"place.anneal_runs", "count"},
	{"place.anneal_steps", "count"},
	{"place.anneal_win_ratio", "ratio"},
	{"netsim.loadstate_init_ms", "ms"},
	{"netsim.swap_us", "us"},
	{"netsim.permute_us", "us"},
	{"netsim.recheck_ms", "ms"},
	{"place.encode_s", "s"},
	{"place.artifact_bytes", "bytes"},
	// placed-mix
	{"http.client_us.warm", "us"},
	{"http.client_us.cold", "us"},
	{"http.client_us.wait", "us"},
	{"serve.handler_us.warm", "us"},
	{"serve.handler_us.cold", "us"},
	{"serve.handler_us.wait", "us"},
	{"catalog.canonical_us", "us"},
	{"serve.place_us", "us"},
	{"serve.table_ms", "ms"},
	{"obs.scrape_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.searches", "count"},
	{"serve.deduped", "count"},
	{"serve.queue_depth_max", "count"},
	{"placed.warm_p99_ms", "ms"},
	{"placed.cold_p50_ms", "ms"},
	{"placed.cold_p90_ms", "ms"},
	{"placed.wait_p90_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	// every workload
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.roots", "count"},
}

// metric is one reported number with its sample count.
type metric struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

// metricSet collects a run's metrics by name.
type metricSet struct {
	byName map[string]metric
	order  []string
}

func (m *metricSet) add(name, unit string, v float64, samples int, note string) {
	if m.byName == nil {
		m.byName = map[string]metric{}
	}
	if _, dup := m.byName[name]; !dup {
		m.order = append(m.order, name)
	}
	m.byName[name] = metric{name: name, unit: unit, value: v, samples: samples, note: note}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one report line per metric.
func (m *metricSet) print(w io.Writer) {
	for _, name := range m.order {
		x := m.byName[name]
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%-6d %s\n", x.name, x.value, x.unit, x.samples, x.note)
	}
}

// result returns the declared metrics for the result line. A declared
// metric the workload did not produce is 0 when zeroOK (a layer the
// workload does not call) and an error otherwise, as is a unit that
// disagrees with the declaration.
func (m *metricSet) result(decl []struct{ name, unit string }, zeroOK bool) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(decl))
	for _, d := range decl {
		x, ok := m.byName[d.name]
		switch {
		case !ok && !zeroOK:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case ok && x.unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, x.unit, d.unit)
		}
		out[d.name] = metricJSON{Value: x.value, Unit: d.unit}
	}
	return out, nil
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	gcPauseMetric  = "/sched/pauses/total/gc:seconds"
)

// gcCounters returns the runtime's cumulative GC cycle count and total
// GC pause time in milliseconds.
func gcCounters() (cycles, pauseMS float64) {
	s := []metrics.Sample{{Name: gcCyclesMetric}, {Name: gcPauseMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		// Each pause counts at its bucket's midpoint (at its finite edge
		// for the two unbounded buckets).
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			v := (lo + hi) / 2
			switch {
			case math.IsInf(lo, -1):
				v = hi
			case math.IsInf(hi, 1):
				v = lo
			}
			pauseMS += float64(c) * v * 1e3
		}
	}
	return cycles, pauseMS
}

// heapWatch records the live heap after every garbage collection while
// it runs. Its peak is the high-water mark of the heap a pass holds, at
// the granularity of the runtime's collections: per-operation scratch
// that is live when a collection runs counts, not only what the pass
// keeps at its end.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is garbage as soon as it is armed; its finalizer runs after
// the next collection. It holds a pointer, so the tiny allocator never
// batches it with other objects (which would delay its finalizer).
type gcSentinel struct{ w *heapWatch }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) {
		if s.w.stopped.Load() {
			return
		}
		s.w.observe()
		s.w.arm()
	})
}

// observe folds the live heap the last collection marked into the peak.
func (w *heapWatch) observe() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stopMB ends the watch and returns its peak in MB. Callers stop it at
// the end of a pass while the pass's outputs are still referenced, so
// the heap the pass ends holding counts too: two forced collections
// (the second empties the sync.Pool victim caches the first leaves
// behind, whose size depends on scheduling) are the watch's last
// observation.
func (w *heapWatch) stopMB() float64 {
	runtime.GC()
	runtime.GC()
	w.observe()
	w.stopped.Store(true)
	return float64(w.peak.Load()) / (1 << 20)
}

// gomaxprocs reports the current GOMAXPROCS.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
