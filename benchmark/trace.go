package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the span the call ran inside on the same
// goroutine (0 for a root); Cause links a root to the span that started
// its work on another goroutine (a driver attempt to its fleet run).
// Key names the pair, search or request the span works for.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Cause  int64  `json:"cause,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. A nil *recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// handle is an open span.
type handle struct {
	r *recorder
	s span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span. parent and cause may be 0.
func (r *recorder) start(name, key string, parent, cause int64) *handle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &handle{r: r, s: span{ID: id, Parent: parent, Cause: cause, Name: name, Key: key, Start: r.now()}}
}

// id returns the span's id, 0 for a nil handle.
func (h *handle) id() int64 {
	if h == nil {
		return 0
	}
	return h.s.ID
}

// end closes the span and records it.
func (h *handle) end() {
	if h == nil {
		return
	}
	h.s.End = h.r.now()
	h.r.mu.Lock()
	h.r.spans = append(h.r.spans, h.s)
	h.r.mu.Unlock()
}

// timed records fn as a span.
func (r *recorder) timed(name, key string, parent int64, fn func()) {
	h := r.start(name, key, parent, 0)
	fn()
	h.end()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTrace dumps a workload's spans into o.traceDir.
func writeTrace(rec *recorder, o opts, name string) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed)))
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]. Overlapping and nested intervals count once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range clipped {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// treeTolerance is how far the self times of one root's tree may sum
// away from the root's duration, as a share of that duration. Children
// are recorded on their parent's goroutine, so they never overlap and
// the sum is exact; a larger gap means a span was parented to a call it
// did not run inside.
const treeTolerance = 0.001

// checkTrees verifies, for every root span, that the self times of its
// tree sum to its duration within treeTolerance. It returns the number
// of roots checked and one message per violation.
func checkTrees(spans []span) (roots int, bad []string) {
	self := selfTimes(spans)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(s *span) *span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return nil
			}
			s = p
		}
		return s
	}
	sums := map[int64]int64{}
	for i := range spans {
		r := rootOf(&spans[i])
		if r == nil {
			bad = append(bad, fmt.Sprintf("span %d (%s) has no recorded root", spans[i].ID, spans[i].Name))
			continue
		}
		sums[r.ID] += self[spans[i].ID]
	}
	ids := make([]int64, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := byID[id]
		d := r.dur()
		gap := sums[id] - d
		if gap < 0 {
			gap = -gap
		}
		if float64(gap) > treeTolerance*float64(d) {
			bad = append(bad, fmt.Sprintf("root %d (%s %s): self times sum to %dns, duration %dns",
				id, r.Name, r.Key, sums[id], d))
		}
	}
	return len(ids), bad
}

// layerTotals sums span durations and self times per span name.
type layerTotal struct {
	n    int
	dur  int64
	self int64
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.n++
		t.dur += s.dur()
		t.self += self[s.ID]
	}
	return out
}

// checked returns the recorded spans after checking that every root
// tree's self times add up to its duration, and the number of roots.
func (r *recorder) checked() ([]span, int, error) {
	spans := r.snapshot()
	roots, bad := checkTrees(spans)
	if len(bad) > 0 {
		return nil, 0, fmt.Errorf("trace trees do not add up: %v", bad[0])
	}
	return spans, roots, nil
}

// passTotals is a trace's span totals per name, divided by the number
// of passes the trace covers.
type passTotals struct {
	totals map[string]*layerTotal
	n      float64
}

func newPassTotals(spans []span, passes int) passTotals {
	return passTotals{totals: layerTotals(spans), n: float64(passes)}
}

// dur returns the summed duration of the named spans per pass, in s.
func (t passTotals) dur(name string) float64 {
	if x := t.totals[name]; x != nil {
		return seconds(x.dur) / t.n
	}
	return 0
}

// self returns the summed self time of the named spans per pass, in s.
func (t passTotals) self(name string) float64 {
	if x := t.totals[name]; x != nil {
		return seconds(x.self) / t.n
	}
	return 0
}

// calls returns the number of the named spans per pass.
func (t passTotals) calls(name string) float64 {
	if x := t.totals[name]; x != nil {
		return float64(x.n) / t.n
	}
	return 0
}

// seconds converts nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }
