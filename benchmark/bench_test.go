package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label, ok := tail(xs); !ok || label != "p99" || v < 990 || v > 991 {
		t.Errorf("tail of 1..1000 = %g %s %t, want p99 near 990", v, label, ok)
	}
}

func TestSelfTimeParallelAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children running in parallel, overlapping on [30, 40].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child outlasting its parent counts only inside the parent.
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 30, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	// Parallel children make the tree's self times exceed the root's
	// duration; the tree check must say so.
	if _, bad := checkTrees(spans); len(bad) != 1 {
		t.Errorf("checkTrees on an overlapping tree: %v, want one violation", bad)
	}
	seq := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "b1", Start: 50, End: 60},
		{ID: 5, Name: "other root", Start: 5, End: 7},
	}
	if roots, bad := checkTrees(seq); roots != 2 || len(bad) != 0 {
		t.Errorf("checkTrees on sequential trees: %d roots, %v", roots, bad)
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 50}}
	if got := covered(iv, 0, 100); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}
	if got := covered(iv, 8, 22); got != 9 {
		t.Errorf("clipped covered = %d, want 9", got)
	}
}

// TestHeapWatchSeesScratch checks that the heap watch reports memory
// that was live at a collection inside the window but is dropped before
// the window ends, and that a watch started afterwards does not.
func TestHeapWatchSeesScratch(t *testing.T) {
	const mb = 64
	w := watchHeap()
	scratch := make([]byte, mb<<20)
	for deadline := time.Now().Add(5 * time.Second); w.peak.Load() < mb<<20; {
		if time.Now().After(deadline) {
			t.Fatalf("no collection observed with %d MB live; peak %d bytes", mb, w.peak.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(scratch)
	scratch = nil
	if got := w.stopMB(); got < mb {
		t.Errorf("peak %.1f MB, want at least the %d MB scratch", got, mb)
	}
	if got := watchHeap().stopMB(); got >= mb {
		t.Errorf("a watch started after the scratch was dropped reports %.1f MB", got)
	}
}

// TestOpenLoopLateness drives a handler that is slow for every request:
// an open loop keeps sending on schedule, so each request's latency is
// its own service time plus its lateness, never the backlog of the
// requests before it.
func TestOpenLoopLateness(t *testing.T) {
	const service = 40 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Protocols: serverProtocols(), Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		io.WriteString(w, "ok")
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()
	var reqs []request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, request{due: time.Duration(i) * 5 * time.Millisecond, class: classWarm, path: "/"})
	}
	res := drive("http://"+ln.Addr().String(), reqs, nil)
	for i, s := range res.samples {
		if !s.ok {
			t.Fatalf("request %d failed: %s", i, s.err)
		}
		if s.late < 0 || s.late > 20*time.Millisecond {
			t.Errorf("request %d sent %v late; an open loop sends on schedule", i, s.late)
		}
		if s.latency != s.late+s.client {
			t.Errorf("request %d: latency %v != late %v + client %v", i, s.latency, s.late, s.client)
		}
		if s.latency < service || s.latency > service+30*time.Millisecond {
			t.Errorf("request %d: latency %v, want about the %v service time", i, s.latency, service)
		}
	}
	// The loop spans the schedule, not 20 service times in a row.
	if res.wall > 95*time.Millisecond+service+100*time.Millisecond {
		t.Errorf("window took %v", res.wall)
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric and
// workload lists the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestToyWorkloads runs every workload at toy size, untraced and
// traced, and checks that each run passes its checks and reports every
// declared metric.
func TestToyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := opts{seed: 7, seconds: 2, trace: trace, toy: true, report: io.Discard,
				traceDir: t.TempDir()}
			if err := execute(name, run, o, t.TempDir()); err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
			}
		}
	}
}
