package main

// census-720: a sweepd-style fleet run. driver.Run with in-process
// workers (4 shards, 2 running at once) evaluates every ordered
// canonical (shape, kind) pair of size 720 with metrics and congestion,
// journals each record through census.StreamWriter from Plan.OnResult,
// and encodes the merged artifact. Construction, measurement and
// congestion do nearly all the work; placement search and the service
// do none, so this is the workload that bypasses them.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/driver"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/taskgraph"
)

const (
	censusShards  = 4
	censusWorkers = 2
	// setupRepeats is how often every workload repeats its set-up; the
	// median is setup_s.
	setupRepeats = 5
)

// censusParams sizes the workload.
type censusParams struct {
	size, maxDim int
}

func censusSize(o opts) censusParams {
	if o.toy {
		return censusParams{size: 24, maxDim: 3}
	}
	return censusParams{size: 720, maxDim: 3}
}

// censusWarmUp is the fleet set-up runs once before timing, so the heap
// has grown and every code path is warm when the first pass starts.
var censusWarmUp = censusParams{size: 120, maxDim: 3}

// censusFleet is the set-up product: the unsharded census template and
// the per-spec tables the traced run's probes need.
type censusFleet struct {
	template census.Config
	specs    []grid.Spec
	edges    map[string]int // guest spec -> |E|
	// firstHash is the first checked pass's artifact digest.
	firstHash [32]byte
}

func setupCensus(p censusParams) *censusFleet {
	f := &censusFleet{
		template: census.Config{
			Size:       p.size,
			MaxDim:     p.maxDim,
			Shapes:     catalog.CanonicalShapesOfSize(p.size, p.maxDim),
			Metrics:    true,
			Congestion: true,
			Embed:      core.Embed,
		},
		edges: map[string]int{},
	}
	f.specs = f.template.Specs()
	for _, sp := range f.specs {
		f.edges[sp.String()] = sp.EdgeCount()
	}
	return f
}

// censusPass is one fleet run's outputs.
type censusPass struct {
	fleet     *censusFleet
	dir       string
	merged    *census.Census
	artifact  []byte
	journal   string
	pairWalls []float64 // ms, one per folded record
	attempts  int64

	// Kept after the pass is released.
	artifactBytes int
	score, wire   float64
}

func (cp *censusPass) opsMS() []float64 { return cp.pairWalls }

func (cp *censusPass) check(out *outcome) {
	out.problems = append(out.problems, cp.fleet.checkPass(cp)...)
	out.attempted += len(cp.fleet.specs) * len(cp.fleet.specs)
	out.failed += cp.merged.VerifyFailures
}

func (cp *censusPass) release() error {
	cp.artifactBytes = len(cp.artifact)
	cp.score, cp.wire = cp.fleet.quality(cp.merged)
	cp.merged, cp.artifact, cp.pairWalls = nil, nil, nil
	return os.RemoveAll(cp.dir)
}

// runPass runs the fleet once in dir. rec, when set, traces it.
func (f *censusFleet) runPass(dir string, rec *recorder, probes *censusProbes) (*censusPass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "census.journal")
	jf, err := os.Create(jpath)
	if err != nil {
		return nil, err
	}
	defer jf.Close()
	jw, err := census.NewStreamWriter(jf, f.template.StreamHeader())
	if err != nil {
		return nil, err
	}
	tmpl := f.template
	if probes != nil {
		tmpl.Embed = probes.embed
	}
	cp := &censusPass{fleet: f, dir: dir, journal: jpath}
	var wallMu sync.Mutex
	var journalErr error
	w := &fleetWorker{rec: rec, probes: probes, onRecord: func(r *census.PairResult) {
		wallMu.Lock()
		cp.pairWalls = append(cp.pairWalls, float64(r.Wall)/1e6)
		wallMu.Unlock()
	}}
	plan := driver.Plan{
		Config:  tmpl,
		Shards:  censusShards,
		Workers: censusWorkers,
		Worker:  w,
		OnResult: func(r *census.PairResult) {
			// Serialized by the driver; runs inside the record's fold.
			h := rec.start("census.journal", "", probes.foldOf(r), 0)
			if err := jw.Write(r); err != nil && journalErr == nil {
				journalErr = err
			}
			h.end()
		},
	}
	d, err := driver.New(plan)
	if err != nil {
		return nil, err
	}
	root := rec.start("census.pass", "", 0, 0)
	run := rec.start("driver.run", "", root.id(), 0)
	w.runID = run.id()
	merged, err := d.Run(context.Background())
	run.end()
	if err != nil {
		return nil, err
	}
	enc := rec.start("census.encode", "", root.id(), 0)
	artifact, err := merged.EncodeBytes()
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "census.json"), artifact, 0o644)
	}
	enc.end()
	if err != nil {
		return nil, err
	}
	cl := rec.start("census.journal_close", "", root.id(), 0)
	err = jf.Close()
	cl.end()
	root.end()
	if err != nil {
		return nil, err
	}
	if journalErr != nil {
		return nil, fmt.Errorf("journal: %w", journalErr)
	}
	cp.merged, cp.artifact, cp.attempts = merged, artifact, w.attempts.Load()
	return cp, nil
}

// fleetWorker is the benchmark's driver.Worker: driver.InProcess,
// counted, and traced when a recorder is set.
type fleetWorker struct {
	rec      *recorder
	probes   *censusProbes
	runID    int64
	attempts atomic.Int64
	onRecord func(*census.PairResult)
}

func (w *fleetWorker) Run(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
	w.attempts.Add(1)
	at := w.rec.start("driver.attempt", fmt.Sprintf("shard %d/%d attempt %d", job.Shard, job.Shards, job.Attempt), 0, w.runID)
	defer at.end()
	return driver.InProcess{}.Run(ctx, job, func(r census.PairResult) error {
		w.onRecord(&r)
		if w.probes == nil {
			return emit(r)
		}
		return w.probes.fold(&r, emit)
	})
}

// checkPass runs the per-pass correctness checks.
func (f *censusFleet) checkPass(cp *censusPass) []string {
	var bad []string
	c := cp.merged
	space := len(f.specs) * len(f.specs)
	if c.SpacePairs != space || len(c.Results) != space || c.Pairs != space {
		bad = append(bad, fmt.Sprintf("census covers %d/%d results of a %d-pair space", c.Pairs, len(c.Results), space))
	}
	seen := make([]bool, space)
	for i, r := range c.Results {
		if r.Index < 0 || r.Index >= space || seen[r.Index] || r.Index != i {
			bad = append(bad, fmt.Sprintf("result %d has index %d (missing or duplicated pair)", i, r.Index))
			break
		}
		seen[r.Index] = true
		n := len(f.specs)
		if g, h := f.specs[i/n].String(), f.specs[i%n].String(); r.Guest != g || r.Host != h {
			bad = append(bad, fmt.Sprintf("result %d names %s -> %s, want %s -> %s", i, r.Guest, r.Host, g, h))
			break
		}
		if r.FailureStage == "" && r.Predicted > 0 && r.Dilation > r.Predicted {
			bad = append(bad, fmt.Sprintf("%s -> %s: dilation %d exceeds predicted %d", r.Guest, r.Host, r.Dilation, r.Predicted))
		}
	}
	if c.VerifyFailures != 0 {
		bad = append(bad, fmt.Sprintf("%d verify failures", c.VerifyFailures))
	}
	if len(cp.pairWalls) != space {
		bad = append(bad, fmt.Sprintf("%d records folded for %d pairs", len(cp.pairWalls), space))
	}
	// The journal must re-read to the merged records.
	h, recs, err := census.ScanStreamFile(cp.journal)
	if err != nil {
		bad = append(bad, fmt.Sprintf("journal: %v", err))
	} else if err := h.SameCensus(f.template.StreamHeader()); err != nil {
		bad = append(bad, fmt.Sprintf("journal header: %v", err))
	} else {
		jc := h.Census()
		jc.Results = recs
		sort.Slice(jc.Results, func(i, j int) bool { return jc.Results[i].Index < jc.Results[j].Index })
		jm, err := census.Merge(jc)
		var jb []byte
		if err == nil {
			jb, err = jm.EncodeBytes()
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("journal merge: %v", err))
		} else if !bytes.Equal(jb, cp.artifact) {
			bad = append(bad, "journal re-reads to a different census than the merged artifact")
		}
	}
	sum := sha256.Sum256(cp.artifact)
	if f.firstHash == ([32]byte{}) {
		f.firstHash = sum
	} else if sum != f.firstHash {
		bad = append(bad, "artifact bytes differ between passes")
	}
	return bad
}

// quality returns the objective score and wirelength sums of the
// census's baseline placements: dilation + peak link load, and
// avg dilation x |E|, over the embeddable pairs.
func (f *censusFleet) quality(c *census.Census) (score, wire float64) {
	for _, r := range c.Results {
		if r.FailureStage != "" {
			continue
		}
		score += float64(r.Dilation + r.Congestion)
		wire += math.Round(r.AvgDilation * float64(f.edges[r.Guest]))
	}
	return score, wire
}

func runCensus(o opts) (*outcome, error) {
	p := censusSize(o)
	var setups []float64
	var fleet *censusFleet
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		fleet = setupCensus(p)
		warm := censusWarmUp
		if o.toy {
			warm = p
		}
		if _, err := setupCensus(warm).runPass(filepath.Join(o.work, fmt.Sprintf("warmup-%d", i)), nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	space := len(fleet.specs) * len(fleet.specs)
	out := &outcome{}
	passes := func(tag string, rec *recorder, probes *censusProbes) func(int) (*censusPass, error) {
		return func(i int) (*censusPass, error) {
			return fleet.runPass(filepath.Join(o.work, fmt.Sprintf("%s-%d", tag, i)), rec, probes)
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	plain, s, err := repeatPasses(out, budget, 2, passes("pass", nil, nil))
	if err != nil {
		return nil, err
	}
	job := median(s.walls())
	p50, tailMS := s.ops()
	var m metricSet
	m.add("setup_s", "s", median(setups), len(setups), fmt.Sprintf("fleet template and a size-%d warm-up fleet run; set-ups %s", censusWarmUp.size, fmtList(setups)))
	s.addCommon(&m, "fleet run")
	m.add("job_s", "s", job, len(s), fmt.Sprintf("fleet run; census_pairs_per_s = %.1f; runs %s", float64(space)/job, fmtList(s.walls())))
	m.add("op_p50_ms", "ms", p50, space, fmt.Sprintf("pair evaluation (PairResult.Wall), median of %d passes", len(s)))
	m.add("census.pair_tail_ms", "ms", tailMS, space, fmt.Sprintf("%s pair evaluation, median of %d passes", s[0].tailLabel, len(s)))
	m.add("score_sum", "score", plain[0].score, space, "sum of dilation + peak link load over embeddable pairs")
	m.add("wirelength_sum", "hops", plain[0].wire, space, "sum of round(avg dilation x |E|)")
	m.add("census_pairs_per_s", "1/s", float64(space)/job, len(s), "pairs / job_s")

	if o.trace {
		if err := traceCensus(o, fleet, &m, out, passes, job); err != nil {
			return nil, err
		}
	}
	out.metrics = m
	return out, nil
}

// traceCensus runs the traced passes and the single-worker reference
// and adds the per-layer metrics.
func traceCensus(o opts, fleet *censusFleet, m *metricSet, out *outcome,
	passes func(string, *recorder, *censusProbes) func(int) (*censusPass, error), plainJob float64) error {
	rec := newRecorder()
	probes := newCensusProbes(rec, fleet)
	budget := time.Duration(o.seconds * float64(time.Second) / 2)
	traced, ts, err := repeatPasses(out, budget, 1, passes("traced", rec, probes))
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	_, single, err := repeatPasses(out, 0, 1, passes("single", nil, nil))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	spans, roots, err := rec.checked()
	if err != nil {
		return err
	}
	t := newPassTotals(spans, len(traced))
	n := t.n
	var driverSelf int64
	var attempts int64
	attemptsOf := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Name == "driver.attempt" {
			attemptsOf[s.Cause] = append(attemptsOf[s.Cause], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Name == "driver.run" {
			driverSelf += s.dur() - covered(attemptsOf[s.ID], s.Start, s.End)
		}
	}
	for _, cp := range traced {
		attempts += cp.attempts
	}
	probeSum := t.dur("embed.verify") + t.dur("grid.dilation") + t.dur("netsim.congestion")
	note := "per traced fleet run, summed over pairs"
	m.add("core.construct_s", "s", t.dur("core.construct"), len(traced), note)
	m.add("core.construct_calls", "count", float64(probes.constructs.Load())/n, len(traced), "per fleet run")
	m.add("embed.materialize_s", "s", t.dur("embed.materialize"), len(traced), note)
	m.add("embed.tables", "count", float64(probes.tables.Load())/n, len(traced), "per fleet run")
	m.add("embed.verify_s", "s", t.dur("embed.verify"), len(traced), "probe of Table.CheckInjection; "+note)
	m.add("grid.dilation_s", "s", t.dur("grid.dilation"), len(traced), "probe of Spec.EdgeDilation; "+note)
	m.add("grid.edges", "count", float64(probes.edges.Load())/n, len(traced), "per fleet run")
	m.add("netsim.congestion_s", "s", t.dur("netsim.congestion"), len(traced), "probe of CongestionHops; "+note)
	m.add("netsim.routed_hops", "count", float64(probes.hops.Load())/n, len(traced), "per fleet run")
	m.add("census.self_s", "s", t.self("census.pair")-probeSum, len(traced), "pair self time net of the probed layers")
	m.add("census.journal_s", "s", t.dur("census.journal"), len(traced), note)
	m.add("census.encode_s", "s", t.dur("census.encode"), len(traced), "merged artifact encode + write")
	m.add("census.artifact_bytes", "bytes", float64(traced[0].artifactBytes), 1, "")
	m.add("driver.self_s", "s", seconds(driverSelf)/n, len(traced), "driver.Run time with no attempt running")
	m.add("driver.attempts", "count", float64(attempts)/n, len(traced), "per fleet run")
	m.add("par.speedup", "ratio", single[0].wall.Seconds()/plainJob, 1, "fleet run at GOMAXPROCS=1 / default")
	m.add("trace.overhead_s", "s", median(ts.walls())-plainJob, len(traced), "traced - untraced fleet run")
	m.add("trace.roots", "count", float64(roots), roots, fmt.Sprintf("root trees checked, tolerance %.1f%%", 100*treeTolerance))
	return writeTrace(rec, o, "census-720")
}

// censusProbes is the traced run's instrumentation of one pair: the
// wrapped Config.Embed opens the pair's root span, times construction,
// forces the kernel table, and probes the layers census.Run calls
// internally without a hook (verification, dilation, congestion) on
// the same inputs. The worker's emit wrapper closes the root.
type censusProbes struct {
	rec     *recorder
	rds     map[string]*grid.RankDistancer
	graphs  map[string]*taskgraph.Graph
	scratch sync.Pool

	mu    sync.Mutex
	roots map[string]*handle // pair key -> open root
	folds map[string]*handle // pair key -> open fold span

	constructs, tables, edges, hops atomic.Int64
}

type probeScratch struct {
	ha, hb []int
	seen   []uint32
}

func newCensusProbes(rec *recorder, f *censusFleet) *censusProbes {
	p := &censusProbes{
		rec:    rec,
		rds:    map[string]*grid.RankDistancer{},
		graphs: map[string]*taskgraph.Graph{},
		roots:  map[string]*handle{},
		folds:  map[string]*handle{},
	}
	for _, sp := range f.specs {
		p.rds[sp.String()] = sp.NewRankDistancer().Materialize()
		p.graphs[sp.String()] = taskgraph.FromSpec(sp)
	}
	words := (f.template.Size + 31) / 32
	p.scratch.New = func() any {
		return &probeScratch{
			ha:   make([]int, grid.DefaultEdgeBlock),
			hb:   make([]int, grid.DefaultEdgeBlock),
			seen: make([]uint32, words),
		}
	}
	return p
}

func pairKey(g, h string) string { return g + "->" + h }

// embed is the traced census.Config.Embed.
func (p *censusProbes) embed(g, h grid.Spec) (*embed.Embedding, error) {
	key := pairKey(g.String(), h.String())
	root := p.rec.start("census.pair", key, 0, 0)
	p.mu.Lock()
	p.roots[key] = root
	p.mu.Unlock()
	var e *embed.Embedding
	var err error
	p.rec.timed("core.construct", key, root.id(), func() { e, err = core.Embed(g, h) })
	p.constructs.Add(1)
	if err != nil {
		return nil, err
	}
	var k embed.Kernel
	p.rec.timed("embed.materialize", key, root.id(), func() { k = e.Kernel() })
	table, ok := k.(embed.Table)
	if !ok {
		return e, nil
	}
	p.tables.Add(1)
	sc := p.scratch.Get().(*probeScratch)
	defer p.scratch.Put(sc)
	p.rec.timed("embed.verify", key, root.id(), func() { table.CheckInjection(g.Size(), sc.seen) })
	p.rec.timed("grid.dilation", key, root.id(), func() { g.EdgeDilation(table, p.rds[h.String()], sc.ha, sc.hb) })
	p.edges.Add(int64(g.EdgeCount()))
	p.rec.timed("netsim.congestion", key, root.id(), func() {
		stats, _, err := netsim.CongestionHops(netsim.New(h), p.graphs[g.String()], netsim.Placement(table))
		if err == nil {
			p.hops.Add(int64(stats.TotalHops))
		}
	})
	return e, nil
}

// fold wraps the driver's emit for one record: the fold is a child of
// the pair's root, which closes after it.
func (p *censusProbes) fold(r *census.PairResult, emit func(census.PairResult) error) error {
	key := pairKey(r.Guest, r.Host)
	p.mu.Lock()
	root := p.roots[key]
	delete(p.roots, key)
	p.mu.Unlock()
	f := p.rec.start("driver.fold", key, root.id(), 0)
	p.mu.Lock()
	p.folds[key] = f
	p.mu.Unlock()
	err := emit(*r)
	p.mu.Lock()
	delete(p.folds, key)
	p.mu.Unlock()
	f.end()
	root.end()
	return err
}

// foldOf returns the id of the fold span a journal write runs inside.
func (p *censusProbes) foldOf(r *census.PairResult) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.folds[pairKey(r.Guest, r.Host)].id()
}
