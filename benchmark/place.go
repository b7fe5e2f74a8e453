package main

// place-anneal: search and annealing do nearly all the work. One set is
// three parts: (1) a placement census of size 36 whose PlaceFunc is the
// benchmark's own copy of place.CensusFunc (budget 32, cap, rotations,
// annealing with the "all" move set at the default step budget) — many
// small searches, where annealing measurably improves the winners; (2)
// place.Search on torus:16x16x16 -> mesh:16x16x16 with "all" moves at
// 2000 steps; (3) place.Search on torus:64x64x32 -> mesh:64x64x32 with
// swaps at 2000 steps. Parts 2 and 3 are where the cost of one move
// scales with the pair.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/place"
	"torusmesh/internal/taskgraph"
)

// bigSearch is one of the set's large single searches.
type bigSearch struct {
	guest, host string
	moves       string
	steps       int
}

// placeParams sizes the workload.
type placeParams struct {
	censusSize int // the placement census covers every dimension
	big        []bigSearch
}

func placeSize(o opts) placeParams {
	if o.toy {
		return placeParams{censusSize: 12, big: []bigSearch{
			{"torus:4x4x4", "mesh:4x4x4", place.AnnealMovesAll, 200},
			{"torus:8x8x4", "mesh:8x8x4", place.DefaultAnnealMoves, 200},
		}}
	}
	return placeParams{censusSize: 36, big: []bigSearch{
		{"torus:16x16x16", "mesh:16x16x16", place.AnnealMovesAll, 2000},
		{"torus:64x64x32", "mesh:64x64x32", place.DefaultAnnealMoves, 2000},
	}}
}

// placeBench is the set-up product.
type placeBench struct {
	template census.Config // part 1, without Place
	search   place.Config  // part 1's search template
	big      []place.Config
	// first is the first checked set's artifact digest.
	first [32]byte
}

func setupPlace(p placeParams, seed int64) (*placeBench, error) {
	b := &placeBench{
		template: census.Config{
			Size:       p.censusSize,
			Shapes:     catalog.CanonicalShapesOfSize(p.censusSize, 0),
			Metrics:    true,
			Congestion: true,
			Embed:      core.Embed,
		},
		search: place.Config{
			Budget:      32,
			CapDilation: true,
			Rotations:   true,
			Anneal:      true,
			AnnealMoves: place.AnnealMovesAll,
			Seed:        seed,
			Strategies:  place.DefaultStrategies(),
		},
	}
	for _, bs := range p.big {
		g, err := grid.ParseSpec(bs.guest)
		if err != nil {
			return nil, err
		}
		h, err := grid.ParseSpec(bs.host)
		if err != nil {
			return nil, err
		}
		cfg := b.search
		cfg.Guest, cfg.Host = g, h
		cfg.AnnealMoves, cfg.AnnealSteps = bs.moves, bs.steps
		b.big = append(b.big, cfg)
	}
	return b, nil
}

// searchRecord is one finished search of a set.
type searchRecord struct {
	cfg      place.Config
	res      *place.Result
	err      error
	wall     time.Duration
	artifact []byte
}

// placeSet is one set's outputs.
type placeSet struct {
	bench    *placeBench
	keepBig  bool   // keep the large searches' records when released
	census   []byte // part 1's census artifact
	searches []*searchRecord

	// Kept after the set is released.
	sum setSummary
	big map[string]*searchRecord // parts 2 and 3, when keepBig
}

// setSummary is what the report needs from one set.
type setSummary struct {
	searches                      int
	score, wire                   float64
	annealNS, runs, steps         float64
	wins, annealed, artifactBytes float64
}

func (ps *placeSet) opsMS() []float64 {
	ms := make([]float64, len(ps.searches))
	for i, sr := range ps.searches {
		ms[i] = float64(sr.wall) / 1e6
	}
	return ms
}

func (ps *placeSet) check(out *outcome) {
	for _, sr := range ps.searches {
		out.attempted++
		if sr.err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: search failed: %v", searchKey(sr), sr.err))
			continue
		}
		out.problems = append(out.problems, checkSearch(sr)...)
	}
	b := ps.bench
	if d := setDigest(ps); b.first == ([32]byte{}) {
		b.first = d
	} else if d != b.first {
		out.problems = append(out.problems, "artifacts differ between sets at a fixed seed")
	}
}

// release fills ps.sum and drops the search records, keeping the large
// searches' records when keepBig is set.
func (ps *placeSet) release() error {
	s := &ps.sum
	for _, sr := range ps.searches {
		s.searches++
		if sr.err != nil {
			continue
		}
		s.score += sr.res.Best.Score
		s.wire += math.Round(sr.res.Best.AvgDilation * float64(sr.cfg.Guest.EdgeCount()))
		for _, ar := range sr.res.AnnealRuns {
			s.annealNS += float64(ar.Elapsed)
			s.runs++
			s.steps += float64(ar.Steps)
		}
		s.wins += float64(sr.res.AnnealWins)
		s.annealed += float64(sr.res.Annealed)
		s.artifactBytes += float64(len(sr.artifact))
	}
	if ps.keepBig {
		ps.big = map[string]*searchRecord{}
		for _, cfg := range ps.bench.big {
			key := pairKey(cfg.Guest.String(), cfg.Host.String())
			for _, sr := range ps.searches {
				if searchKey(sr) == key && sr.err == nil {
					ps.big[key] = sr
				}
			}
		}
	}
	ps.searches, ps.census = nil, nil
	return nil
}

// placeTracer holds the traced run's span context for one set.
type placeTracer struct {
	rec    *recorder
	partID int64 // the part span searches are caused by
}

// runSearch runs one search the way place.CensusFunc does, timing it
// together with the encoding of its artifact. parent is the span it runs inside (0 for a
// search on a census worker goroutine, which becomes a root caused by
// the part span).
func (b *placeBench) runSearch(cfg place.Config, tr *placeTracer, parent int64) *searchRecord {
	key := pairKey(cfg.Guest.String(), cfg.Host.String())
	var h *handle
	if tr != nil {
		cause := int64(0)
		if parent == 0 {
			cause = tr.partID
		}
		h = tr.rec.start("place.search", key, parent, cause)
	}
	sr := &searchRecord{cfg: cfg}
	t := time.Now()
	sr.res, sr.err = place.Search(cfg)
	if sr.err == nil {
		var e *handle
		if tr != nil {
			e = tr.rec.start("place.encode", key, h.id(), 0)
		}
		sr.artifact, sr.err = sr.res.EncodeBytes()
		e.end()
	}
	sr.wall = time.Since(t)
	h.end()
	if tr != nil && sr.err == nil {
		// Probe: the same search with annealing off is the candidate
		// scoring cost alone.
		probe := cfg
		probe.Anneal, probe.AnnealMoves, probe.AnnealSteps, probe.Seed = false, "", 0, 0
		cause := int64(0)
		if parent == 0 {
			cause = h.id()
		}
		p := tr.rec.start("place.score", key, parent, cause)
		place.Search(probe)
		p.end()
	}
	return sr
}

// runSet runs the three parts once.
func (b *placeBench) runSet(tr *placeTracer, keepBig bool) (*placeSet, error) {
	ps := &placeSet{bench: b, keepBig: keepBig}
	var mu sync.Mutex
	cfg := b.template
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	root := rec.start("place.set", "", 0, 0)
	part := rec.start("place.part1", "", root.id(), 0)
	if tr != nil {
		tr.partID = part.id()
	}
	cfg.Place = func(g, h grid.Spec) (*census.PlaceSummary, error) {
		sc := b.search
		sc.Guest, sc.Host = g, h
		sr := b.runSearch(sc, tr, 0)
		mu.Lock()
		ps.searches = append(ps.searches, sr)
		mu.Unlock()
		if sr.err != nil {
			return nil, sr.err
		}
		return place.Summary(sr.res.Best), nil
	}
	cfg.PlaceSpec = b.search.Spec()
	c, err := census.Run(cfg)
	part.end()
	if err != nil {
		return nil, err
	}
	if ps.census, err = c.EncodeBytes(); err != nil {
		return nil, err
	}
	for i, bc := range b.big {
		part := rec.start(fmt.Sprintf("place.part%d", i+2), "", root.id(), 0)
		ps.searches = append(ps.searches, b.runSearch(bc, tr, part.id()))
		part.end()
	}
	root.end()
	// Part 1 appends in completion order; sort for stable reporting.
	sort.SliceStable(ps.searches, func(i, j int) bool {
		return searchKey(ps.searches[i]) < searchKey(ps.searches[j])
	})
	return ps, nil
}

func searchKey(sr *searchRecord) string {
	return pairKey(sr.cfg.Guest.String(), sr.cfg.Host.String())
}

// checkSearch re-measures a winner from outside the search engine and
// checks it against the result: the winner is a front member scoring
// no worse than the baseline, and its table reproduces the reported
// dilation and peak link load.
func checkSearch(sr *searchRecord) []string {
	r := sr.res
	name := searchKey(sr)
	var bad []string
	inFront := false
	for _, c := range r.Front {
		if c.Index == r.Best.Index && c.Score == r.Best.Score {
			inFront = true
		}
	}
	if !inFront {
		bad = append(bad, fmt.Sprintf("%s: winner %d is not on its front", name, r.Best.Index))
	}
	if r.Best.Score > r.Baseline.Score {
		bad = append(bad, fmt.Sprintf("%s: winner score %g worse than baseline %g", name, r.Best.Score, r.Baseline.Score))
	}
	if r.BestEmbedding == nil {
		return append(bad, name+": no winning embedding")
	}
	g, h := sr.cfg.Guest, sr.cfg.Host
	table := r.BestEmbedding.Table()
	dil, _ := g.EdgeDilation(table, h.NewRankDistancer(), make([]int, grid.DefaultEdgeBlock), make([]int, grid.DefaultEdgeBlock))
	stats, err := netsim.Congestion(netsim.New(h), taskgraph.FromSpec(g), netsim.Placement(table))
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("%s: re-measuring the winner: %v", name, err))
	case dil != r.Best.Dilation || stats.MaxLink != r.Best.Peak:
		bad = append(bad, fmt.Sprintf("%s: winner re-measures to dilation %d peak %d, reported %d and %d",
			name, dil, stats.MaxLink, r.Best.Dilation, r.Best.Peak))
	}
	return bad
}

// setDigest hashes every artifact of a set in a fixed order.
func setDigest(ps *placeSet) [32]byte {
	var buf bytes.Buffer
	buf.Write(ps.census)
	for _, sr := range ps.searches {
		buf.Write(sr.artifact)
	}
	return sha256.Sum256(buf.Bytes())
}

func runPlace(o opts) (*outcome, error) {
	p := placeSize(o)
	var setups []float64
	var b *placeBench
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		if b, err = setupPlace(p, o.seed); err != nil {
			return nil, err
		}
		// Warm-up: one set at toy size, so the first timed set starts
		// with a grown heap and warm code paths.
		warm, err := setupPlace(placeSize(opts{toy: true}), o.seed)
		if err != nil {
			return nil, err
		}
		if _, err := warm.runSet(nil, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out := &outcome{}
	sets := func(tr *placeTracer) func(int) (*placeSet, error) {
		return func(i int) (*placeSet, error) { return b.runSet(tr, i == 0) }
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	minSets := 2 // byte-identity across sets needs a second set
	if o.trace {
		budget, minSets = budget/2, 1
	}
	plain, s, err := repeatPasses(out, budget, minSets, sets(nil))
	if err != nil {
		return nil, err
	}
	job := median(s.walls())
	p50, tailMS := s.ops()
	n := plain[0].sum.searches
	var m metricSet
	m.add("setup_s", "s", median(setups), len(setups), "search templates and a toy-size warm-up set; set-ups "+fmtList(setups))
	s.addCommon(&m, "set")
	m.add("job_s", "s", job, len(s), "three-part set (= place_search_s); sets "+fmtList(s.walls()))
	m.add("op_p50_ms", "ms", p50, n, fmt.Sprintf("one place.Search + Encode, median of %d sets", len(s)))
	m.add("place.search_tail_ms", "ms", tailMS, n, fmt.Sprintf("%s place.Search, median of %d sets", s[0].tailLabel, len(s)))
	m.add("score_sum", "score", plain[0].sum.score, n, "sum of winner scores (= place_score_sum)")
	m.add("wirelength_sum", "hops", plain[0].sum.wire, n, "sum of round(winner avg dilation x |E|) (= place_wirelength_sum)")
	if o.trace {
		if err := tracePlace(o, b, &m, out, sets, job); err != nil {
			return nil, err
		}
	}
	out.metrics = m
	return out, nil
}

// tracePlace runs the traced sets and the LoadState probes and adds the
// per-layer metrics.
func tracePlace(o opts, b *placeBench, m *metricSet, out *outcome, sets func(*placeTracer) func(int) (*placeSet, error), plainJob float64) error {
	rec := newRecorder()
	traced, ts, err := repeatPasses(out, time.Duration(o.seconds*float64(time.Second)/2), 1, sets(&placeTracer{rec: rec}))
	if err != nil {
		return err
	}
	spans, roots, err := rec.checked()
	if err != nil {
		return err
	}
	t := newPassTotals(spans, len(traced))
	n := t.n
	var all setSummary
	for _, ps := range traced {
		all.annealNS += ps.sum.annealNS
		all.runs += ps.sum.runs
		all.steps += ps.sum.steps
		all.wins += ps.sum.wins
		all.annealed += ps.sum.annealed
		all.artifactBytes += ps.sum.artifactBytes
	}
	note := "per set"
	m.add("place.search_s", "s", t.dur("place.search"), len(traced), "summed over searches, "+note)
	m.add("place.search_calls", "count", t.calls("place.search"), len(traced), note)
	m.add("place.score_s", "s", t.dur("place.score"), len(traced), "probe: same searches with annealing off, "+note)
	m.add("place.anneal_s", "s", all.annealNS/1e9/n, len(traced), "summed over anneal runs (Result.AnnealRuns), "+note)
	m.add("place.anneal_runs", "count", all.runs/n, len(traced), note)
	m.add("place.anneal_steps", "count", all.steps/n, len(traced), note)
	ratio := 0.0
	if all.annealed > 0 {
		ratio = all.wins / all.annealed
	}
	m.add("place.anneal_win_ratio", "ratio", ratio, int(all.annealed), "AnnealWins / Annealed")
	m.add("place.encode_s", "s", t.dur("place.encode"), len(traced), note)
	m.add("place.artifact_bytes", "bytes", all.artifactBytes/n, len(traced), note)
	if err := probeLoadState(b, traced[0], m); err != nil {
		return err
	}
	m.add("trace.overhead_s", "s", median(ts.walls())-plainJob, len(traced), "traced - untraced set (traced adds the place.score probes)")
	m.add("trace.roots", "count", float64(roots), roots, fmt.Sprintf("root trees checked, tolerance %.1f%%", 100*treeTolerance))
	return writeTrace(rec, o, "place-anneal")
}

// probeLoadState times the incremental-routing layer the annealer sits
// on, on the winners of parts 2 and 3: building the LoadState, single
// swaps, a host plane swap through Permute, and a full Recheck. Values
// are averaged over the probed pairs.
func probeLoadState(b *placeBench, ps *placeSet, m *metricSet) error {
	var initMS, swapUS, permUS, recheckMS []float64
	for _, cfg := range b.big {
		sr := ps.big[pairKey(cfg.Guest.String(), cfg.Host.String())]
		if sr == nil || sr.res.BestEmbedding == nil {
			return fmt.Errorf("no winner to probe for %s", pairKey(cfg.Guest.String(), cfg.Host.String()))
		}
		nw, tg := netsim.New(cfg.Host), taskgraph.FromSpec(cfg.Guest)
		table := netsim.Placement(embed.Table(sr.res.BestEmbedding.Table()))
		t := time.Now()
		ls, err := netsim.NewLoadState(nw, tg, table)
		if err != nil {
			return err
		}
		initMS = append(initMS, float64(time.Since(t))/1e6)
		n := len(table)
		rng := rand.New(rand.NewSource(1))
		const swaps = 20000
		t = time.Now()
		for i := 0; i < swaps; i++ {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			ls.Swap(u, v)
		}
		swapUS = append(swapUS, float64(time.Since(t))/1e3/swaps)
		guests, hosts := planeSwap(ls, cfg.Host.Shape, 0, 0, cfg.Host.Shape[0]-1)
		const permutes = 10
		t = time.Now()
		for i := 0; i < permutes; i++ {
			ls.Permute(guests, hosts)
			guests, hosts = planeSwap(ls, cfg.Host.Shape, 0, 0, cfg.Host.Shape[0]-1)
		}
		permUS = append(permUS, float64(time.Since(t))/1e3/permutes)
		t = time.Now()
		if err := ls.Recheck(); err != nil {
			return fmt.Errorf("LoadState recheck after probe moves: %v", err)
		}
		recheckMS = append(recheckMS, float64(time.Since(t))/1e6)
	}
	note := fmt.Sprintf("probe on the %d large winners", len(b.big))
	m.add("netsim.loadstate_init_ms", "ms", mean(initMS), len(initMS), note)
	m.add("netsim.swap_us", "us", mean(swapUS), len(swapUS), note+", per Swap")
	m.add("netsim.permute_us", "us", mean(permUS), len(permUS), note+", per host plane swap (includes building the move)")
	m.add("netsim.recheck_ms", "ms", mean(recheckMS), len(recheckMS), note)
	return nil
}

// planeSwap builds the Permute arguments that exchange host planes c1
// and c2 along axis j: every guest on one plane moves to its projection
// on the other.
func planeSwap(ls *netsim.LoadState, shape grid.Shape, j, c1, c2 int) (guests, hosts []int32) {
	strides := shape.Strides()
	stride, l := strides[j], shape[j]
	off := (c2 - c1) * stride
	for h := 0; h < shape.Size(); h++ {
		if (h/stride)%l != c1 {
			continue
		}
		guests = append(guests, int32(ls.GuestAt(h)), int32(ls.GuestAt(h+off)))
		hosts = append(hosts, int32(h+off), int32(h))
	}
	return guests, hosts
}
