package main

// placed-mix: reads and writes on the placement service. serve.New runs
// with placed's default search settings and one search worker behind
// its own Handler on a loopback listener. Set-up searches the warm set
// (every embeddable ordered canonical pair of sizes 24 and 36), closes
// the server and reopens a new one on the same cache directory — the
// restart path, where the first table=1 request per entry re-runs the
// search. The load is an open loop at a fixed rate over two HTTP/2
// connections, every request sent on its own goroutine at its due time
// and timed from it:
//
//	warm   Zipf-popular warm pairs, guest axes randomly relabeled,
//	       10% with table=1 (reads)
//	cold   2.5%: the first request for a fresh canonical pair of size
//	       360, 720 or 1024, wait=false (entry creation, a baseline
//	       build on the request path, a background search, a store)
//	wait   2.5%: the same kind of first request with wait=true, timed
//	       until the searched tier is ready
//	scrape one /metrics scrape per second

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
	"torusmesh/internal/serve"
)

// Request classes.
const (
	classWarm = iota
	classCold
	classWait
	classScrape
	numClasses
)

var classNames = [numClasses]string{"warm", "cold", "wait", "scrape"}

// placedParams sizes the workload.
type placedParams struct {
	warmSizes []int
	coldSizes []int
	rate      float64 // requests per second, scrapes excluded
	coldShare float64 // share of cold requests, and again of wait requests
}

const tableShare = 0.10 // share of warm requests with table=1

// zipfS is the Zipf exponent of warm-pair popularity. It is an
// assumption, not a measurement: no recorded placed traffic backs it.
// README.md reports how the placed-mix metrics move with it.
const zipfS = 1.1

func placedSize(o opts) placedParams {
	p := placedParams{
		warmSizes: []int{24, 36},
		coldSizes: []int{360, 720, 1024},
		rate:      placedRate,
		coldShare: 0.025,
	}
	if o.toy {
		p.warmSizes, p.coldSizes, p.rate, p.coldShare = []int{12}, []int{48, 64}, 300, 0.1
	}
	return p
}

// placedRate is the offered load (scrapes excluded). On a 2-CPU
// machine the single search worker stops keeping up with the fresh
// pairs between 600 and 800 req/s: the search queue then grows without
// bound and the generator runs late. This is about a third of that;
// at half of it, queueing turned the machine's speed swings into a
// run-to-run spread of the wait latency wider than its bound.
const placedRate = 200

// placedConfig is cmd/placed's default search configuration.
func placedConfig() place.Config {
	return place.Config{
		Objective:   place.DefaultObjective(),
		Budget:      place.DefaultBudget,
		CapDilation: true,
		Rotations:   true,
		Strategies:  place.DefaultStrategies(),
	}
}

// warmPair is one member of the warm set with its searched winner.
type warmPair struct {
	g, h  grid.Spec
	key   string
	score float64
	wire  float64
}

// request is one scheduled request.
type request struct {
	due    time.Duration
	class  int
	table  bool
	path   string // URL path and query
	canonG string // expected canonical guest (sampled warm checks)
	canonH string
	check  bool // decode the response and check its canonical pair
	traced bool // record client and handler spans (traced runs)
}

// sample is one finished request.
type sample struct {
	latency time.Duration // from due time to body read
	client  time.Duration // from send to body read
	late    time.Duration // send - due
	ok      bool
	err     string
}

// placedRun is the state of one run: the server under test and its
// listener.
type placedRun struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error // Serve's return
	base string     // http://host:port
	mw   *handlerTimer
}

// setupPlaced searches the warm set into a fresh cache directory,
// reopens the server on it and starts the listener.
func setupPlaced(p placedParams, dir string) (*placedRun, []warmPair, error) {
	cfg := serve.Config{Place: placedConfig(), CacheDir: dir, SearchWorkers: 1}
	first, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var candidates []warmPair
	for _, n := range p.warmSizes {
		specs := specsOf(n, 0)
		for _, g := range specs {
			for _, h := range specs {
				candidates = append(candidates, warmPair{g: g, h: h})
			}
		}
	}
	ctx := context.Background()
	var warm []warmPair
	for _, wp := range candidates {
		if _, err := first.Place(ctx, wp.g, wp.h, false); err != nil {
			if errors.Is(err, serve.ErrUnembeddable) {
				continue
			}
			first.Close()
			return nil, nil, err
		}
		warm = append(warm, wp)
	}
	first.Flush()
	for i := range warm {
		a, err := first.Place(ctx, warm[i].g, warm[i].h, false)
		if err != nil || a.Tier != serve.TierSearched {
			first.Close()
			return nil, nil, fmt.Errorf("warm pair %s -> %s not searched: %v", warm[i].g, warm[i].h, err)
		}
		warm[i].key = a.Key.String()
		warm[i].score = a.Result.Best.Score
		warm[i].wire = math.Round(a.Result.Best.AvgDilation * float64(warm[i].g.EdgeCount()))
	}
	if err := first.Close(); err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if got := srv.Status().CacheLoaded; got != int64(len(warm)) {
		srv.Close()
		return nil, nil, fmt.Errorf("reopened cache restored %d entries, want %d", got, len(warm))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	r := &placedRun{srv: srv, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	r.mw = &handlerTimer{next: srv.Handler()}
	r.hs = &http.Server{Handler: r.mw, Protocols: serverProtocols()}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, warm, nil
}

// close stops the listener and the server and waits for both.
func (r *placedRun) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// specsOf lists the (shape, kind) specs of the canonical shapes of size
// n, in census enumeration order.
func specsOf(n, maxDim int) []grid.Spec {
	cfg := census.Config{Shapes: catalog.CanonicalShapesOfSize(n, maxDim)}
	return cfg.Specs()
}

// coldPool hands out fresh canonical pairs the baseline can embed. Per
// size, the pairs sit in one fixed pseudo-random order that does not
// depend on the seed: wait requests take them from the front, cold
// requests from the back, so every run asks for nearly the same fresh
// pairs per class and runs with different seeds stay comparable. The
// seed decides when and in which mix they are requested.
type coldPool struct {
	pairs      [][][2]grid.Spec
	head, tail []int
	base       place.EmbedFunc
}

func newColdPool(sizes []int) *coldPool {
	cp := &coldPool{base: placedConfig().Strategies[0].Embed}
	order := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		specs := specsOf(n, 3)
		var ps [][2]grid.Spec
		for _, g := range specs {
			for _, h := range specs {
				ps = append(ps, [2]grid.Spec{g, h})
			}
		}
		order.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		cp.pairs = append(cp.pairs, ps)
		cp.head = append(cp.head, 0)
		cp.tail = append(cp.tail, len(ps)-1)
	}
	return cp
}

// draw returns the next fresh embeddable pair of the k-th size (mod the
// number of sizes), from the front for wait requests and from the back
// otherwise. Callers rotate k so every class sees the sizes in equal
// shares.
func (cp *coldPool) draw(k int, front bool) ([2]grid.Spec, error) {
	k %= len(cp.pairs)
	for cp.head[k] <= cp.tail[k] {
		var p [2]grid.Spec
		if front {
			p = cp.pairs[k][cp.head[k]]
			cp.head[k]++
		} else {
			p = cp.pairs[k][cp.tail[k]]
			cp.tail[k]--
		}
		if _, err := cp.base(p[0], p[1]); err == nil {
			return p, nil
		}
	}
	return [2]grid.Spec{}, fmt.Errorf("cold pool of size %d exhausted", cp.pairs[k][0][0].Size())
}

// relabel returns the guest with its axes in a random order.
func relabel(g grid.Spec, rng *rand.Rand) grid.Spec {
	s := g.Shape.Clone()
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return grid.Spec{Kind: g.Kind, Shape: s}
}

// specArg renders a spec the way grid.ParseSpec reads it back
// (Spec.String names 1-D specs ring(n) and line(n)).
func specArg(sp grid.Spec) string { return fmt.Sprintf("%s:%s", sp.Kind, sp.Shape) }

func placeURL(g, h grid.Spec, extra string) string {
	q := url.Values{}
	q.Set("from", specArg(g))
	q.Set("to", specArg(h))
	return "/place?" + q.Encode() + extra
}

// schedule builds the seeded request sequence for a window.
func schedule(p placedParams, warm []warmPair, pool *coldPool, rng *rand.Rand, window time.Duration) ([]request, []string) {
	var bad []string
	// Popularity: a seeded permutation of the warm set, Zipf-ranked.
	order := rng.Perm(len(warm))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(warm)-1))
	n := int(p.rate * window.Seconds())
	var reqs []request
	nextScrape := time.Duration(0)
	var drawn [numClasses]int
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / p.rate * float64(time.Second))
		for nextScrape <= due {
			reqs = append(reqs, request{due: nextScrape, class: classScrape, path: "/metrics"})
			nextScrape += time.Second
		}
		u := rng.Float64()
		switch {
		case u < p.coldShare, u < 2*p.coldShare:
			cls := classCold
			extra := ""
			if u >= p.coldShare {
				cls, extra = classWait, "&wait=1"
			}
			pair, err := pool.draw(drawn[cls], cls == classWait)
			drawn[cls]++
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			reqs = append(reqs, request{due: due, class: cls, path: placeURL(pair[0], pair[1], extra)})
		default:
			wp := warm[order[zipf.Uint64()]]
			g := relabel(wp.g, rng)
			key, err := catalog.CanonicalPair(g, wp.h)
			if err != nil || key.String() != wp.key {
				bad = append(bad, fmt.Sprintf("relabeled guest %s of %s does not share its canonical key", g, wp.key))
			}
			table := rng.Float64() < tableShare
			extra := ""
			if table {
				extra = "&table=1"
			}
			reqs = append(reqs, request{due: due, class: classWarm, table: table, path: placeURL(g, wp.h, extra),
				canonG: key.Guest.String(), canonH: key.Host.String(), check: i%50 == 0})
		}
	}
	return reqs, bad
}

// handlerTimer is the middleware the benchmark wraps around Handler():
// when tracing, it records one span per traced request, caused by the
// client's span, and the handler time by class.
type handlerTimer struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

const (
	classHeader = "X-Bench-Class"
	spanHeader  = "X-Bench-Span"
)

func (ht *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := ht.rec.Load()
	if rec == nil || r.Header.Get(spanHeader) == "" {
		ht.next.ServeHTTP(w, r)
		return
	}
	cause, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	h := rec.start("serve.handler."+r.Header.Get(classHeader), r.URL.RawQuery, 0, cause)
	ht.next.ServeHTTP(w, r)
	h.end()
}

// newClient returns one of the generator's two connections. Requests
// are multiplexed over it as unencrypted HTTP/2 streams, so a long
// wait=true request never holds up the requests due after it: the loop
// stays open with two connections.
func newClient() *http.Client {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Protocols:          &protos,
			MaxConnsPerHost:    1,
			DisableCompression: true,
		},
	}
}

// serverProtocols accepts HTTP/1 and the generator's unencrypted HTTP/2.
func serverProtocols() *http.Protocols {
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	return &protos
}

// loadResult is one window's outcome.
type loadResult struct {
	samples  []sample
	problems []string
	wall     time.Duration
	cpu      time.Duration
}

// drive runs the open loop over reqs: each request is sent at its due
// time on its own goroutine, alternating between the two connections.
// rec, when set, records a client span per traced request.
func drive(base string, reqs []request, rec *recorder) *loadResult {
	res := &loadResult{samples: make([]sample, len(reqs))}
	clients := [2]*http.Client{newClient(), newClient()}
	var probMu sync.Mutex
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for i := range reqs {
		rq := &reqs[i]
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			r := rec
			if !rq.traced {
				r = nil
			}
			sent := time.Now()
			smp, prob := send(c, base, rq, r)
			done := time.Now()
			smp.late = sent.Sub(due)
			smp.client = done.Sub(sent)
			smp.latency = done.Sub(due)
			res.samples[i] = smp
			if prob != "" {
				probMu.Lock()
				res.problems = append(res.problems, prob)
				probMu.Unlock()
			}
		}(i, clients[i%2])
	}
	wg.Wait()
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return res
}

// send sends one request and reads its body. prob reports a failed
// response check.
func send(c *http.Client, base string, rq *request, rec *recorder) (smp sample, prob string) {
	req, err := http.NewRequest(http.MethodGet, base+rq.path, nil)
	if err != nil {
		return sample{err: err.Error()}, ""
	}
	h := rec.start("http.client."+classNames[rq.class], rq.path, 0, 0)
	if rec != nil {
		req.Header.Set(classHeader, classNames[rq.class])
		req.Header.Set(spanHeader, strconv.FormatInt(h.id(), 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		h.end()
		return sample{err: err.Error()}, ""
	}
	var body []byte
	if rq.check {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	h.end()
	if err != nil {
		return sample{err: err.Error()}, ""
	}
	if resp.StatusCode != http.StatusOK {
		return sample{err: resp.Status}, ""
	}
	if rq.check {
		var pr serve.Response
		if err := json.Unmarshal(body, &pr); err != nil {
			return sample{ok: true}, fmt.Sprintf("%s: undecodable response: %v", rq.path, err)
		}
		if pr.CanonicalGuest != rq.canonG || pr.CanonicalHost != rq.canonH {
			return sample{ok: true}, fmt.Sprintf("%s: served canonical pair %s -> %s, want %s -> %s",
				rq.path, pr.CanonicalGuest, pr.CanonicalHost, rq.canonG, rq.canonH)
		}
		if rq.table && len(pr.Placement) == 0 {
			return sample{ok: true}, rq.path + ": table=1 answer without a placement"
		}
	}
	return sample{ok: true}, ""
}

// classStats splits a window's samples by class.
type classStats struct {
	latencyMS [numClasses][]float64
	tableMS   []float64 // warm table=1 latencies
	lateMS    []float64
	failed    int
	firstErr  string
}

func splitSamples(reqs []request, samples []sample) *classStats {
	cs := &classStats{}
	for i, s := range samples {
		cls := reqs[i].class
		cs.lateMS = append(cs.lateMS, float64(s.late)/1e6)
		if !s.ok {
			cs.failed++
			if cs.firstErr == "" {
				cs.firstErr = fmt.Sprintf("%s: %s", reqs[i].path, s.err)
			}
			continue
		}
		cs.latencyMS[cls] = append(cs.latencyMS[cls], float64(s.latency)/1e6)
		if cls == classWarm && reqs[i].table {
			cs.tableMS = append(cs.tableMS, float64(s.latency)/1e6)
		}
	}
	return cs
}

// checkArtifacts compares /artifact for sampled pairs with an
// in-process place.Search + Encode of the canonical pair under the
// server's configuration.
func checkArtifacts(base string, pairs [][2]grid.Spec) []string {
	var bad []string
	client := newClient()
	defer client.CloseIdleConnections()
	for _, p := range pairs {
		key, err := catalog.CanonicalPair(p[0], p[1])
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		q := url.Values{}
		q.Set("from", specArg(p[0]))
		q.Set("to", specArg(p[1]))
		resp, err := client.Get(base + "/artifact?" + q.Encode())
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			bad = append(bad, fmt.Sprintf("/artifact %s: %s %v", key, resp.Status, err))
			continue
		}
		cfg := placedConfig()
		cfg.Guest, cfg.Host = key.Guest, key.Host
		res, err := place.Search(cfg)
		var want []byte
		if err == nil {
			want, err = res.EncodeBytes()
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("in-process search %s: %v", key, err))
			continue
		}
		if !bytes.Equal(served, want) {
			bad = append(bad, fmt.Sprintf("/artifact %s differs from an in-process search", key))
		}
	}
	return bad
}

func runPlaced(o opts) (*outcome, error) {
	p := placedSize(o)
	var setups []float64
	var run *placedRun
	var warm []warmPair
	for i := 0; i < placedSetupRepeats(o); i++ {
		if run != nil {
			if err := run.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		run, warm, err = setupPlaced(p, filepath.Join(o.work, fmt.Sprintf("cache-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer run.close()

	rng := rand.New(rand.NewSource(o.seed))
	pool := newColdPool(p.coldSizes)
	window := time.Duration(o.seconds * float64(time.Second))
	reqs, bad := schedule(p, warm, pool, rng, window)
	out := &outcome{problems: bad}

	var rec *recorder
	if o.trace {
		// Every other request of each class is traced, so the traced
		// and untraced requests share the window and its load.
		var seen [numClasses]int
		for i := range reqs {
			reqs[i].traced = seen[reqs[i].class]%2 == 1
			seen[reqs[i].class]++
		}
		rec = newRecorder()
		run.mw.rec.Store(rec)
	}
	stopQueue, deepest := sampleQueue(run.srv)
	heap := watchHeap()
	c0, p0 := gcCounters()
	st0 := run.srv.Status()
	load := drive(run.base, reqs, rec)
	c1, p1 := gcCounters()
	run.mw.rec.Store(nil)
	gcCycles, gcPause := c1-c0, p1-p0
	close(stopQueue)
	qmax := <-deepest
	st1 := run.srv.Status()
	peakMB := heap.stopMB()
	cpu, wall := load.cpu, load.wall
	out.problems = append(out.problems, load.problems...)
	cs := splitSamples(reqs, load.samples)
	out.attempted, out.failed = len(reqs), cs.failed
	if cs.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d requests failed, first: %s", cs.failed, len(reqs), cs.firstErr))
	}

	// Outputs: the artifacts of three warm and three fresh pairs, spread
	// over the window, must match an in-process search.
	run.srv.Flush()
	var warmIdx, freshIdx []int
	for i, rq := range reqs {
		switch rq.class {
		case classWarm:
			warmIdx = append(warmIdx, i)
		case classCold, classWait:
			freshIdx = append(freshIdx, i)
		}
	}
	var sampled [][2]grid.Spec
	for _, idx := range [][]int{warmIdx, freshIdx} {
		for k := 0; k < 3 && k < len(idx); k++ {
			g, h, err := pairOf(reqs[idx[k*len(idx)/3]].path)
			if err != nil {
				return nil, err
			}
			sampled = append(sampled, [2]grid.Spec{g, h})
		}
	}
	out.problems = append(out.problems, checkArtifacts(run.base, sampled)...)

	var score, wire float64
	for _, wp := range warm {
		score += wp.score
		wire += wp.wire
	}
	lat := cs.latencyMS
	for _, c := range []int{classWarm, classCold, classWait} {
		if _, ok := tailPercentile(len(lat[c])); !ok {
			return nil, fmt.Errorf("only %d %s samples", len(lat[c]), classNames[c])
		}
	}
	secs := wall.Seconds()
	var m metricSet
	m.add("setup_s", "s", median(setups), len(setups), fmt.Sprintf("search %d warm pairs, reopen on the cache; set-ups %s", len(warm), fmtList(setups)))
	m.add("cpu_s", "s", cpu.Seconds()/secs, len(reqs), fmt.Sprintf("process CPU per second of load at %g req/s", p.rate))
	m.add("peak_heap_mb", "MB", peakMB, len(reqs), "live-heap high-water mark of the window, read after every collection")
	m.add("job_s", "s", median(lat[classWait])/1e3, len(lat[classWait]), "wait request p50 (= placed_wait_p50_ms)")
	m.add("op_p50_ms", "ms", median(lat[classWarm]), len(lat[classWarm]), fmt.Sprintf("warm request (= placed_warm_p50_ms), Zipf(%g) popularity", zipfS))
	m.add("score_sum", "score", score, len(warm), "sum of the warm set's searched winner scores")
	m.add("wirelength_sum", "hops", wire, len(warm), "sum of round(winner avg dilation x |E|) over the warm set")

	pct := func(name string, xs []float64, q float64) {
		note := ""
		if float64(len(xs))*(1-q) < 10-1e-9 {
			note = "fewer than 10 samples beyond this percentile"
		}
		m.add(name, "ms", quantile(xs, q), len(xs), note)
	}
	pct("placed.warm_p99_ms", lat[classWarm], 0.99)
	pct("placed.cold_p50_ms", lat[classCold], 0.5)
	pct("placed.cold_p90_ms", lat[classCold], 0.9)
	pct("placed.wait_p90_ms", lat[classWait], 0.9)
	m.add("gen.late_p99_ms", "ms", quantile(cs.lateMS, 0.99), len(cs.lateMS), "send time - due time")
	m.add("gen.late_max_ms", "ms", quantile(cs.lateMS, 1), len(cs.lateMS), "")
	m.add("go.gc_cycles", "count", gcCycles/secs, len(reqs), "per second of load")
	m.add("go.gc_pause_ms", "ms", gcPause/secs, len(reqs), "per second of load")
	m.add("par.utilization", "ratio", cpu.Seconds()/(secs*float64(gomaxprocs())), len(reqs), fmt.Sprintf("cpu / (wall x GOMAXPROCS=%d)", gomaxprocs()))
	reqDelta := float64(st1.Requests - st0.Requests)
	m.add("serve.hit_ratio", "ratio", float64(st1.Hits-st0.Hits)/reqDelta, int(reqDelta), "searched-tier answers / Place calls")
	m.add("serve.searches", "count", float64(st1.Searches-st0.Searches), 1, "background searches in the window")
	m.add("serve.deduped", "count", float64(st1.Deduped-st0.Deduped), 1, "")
	m.add("serve.queue_depth_max", "count", float64(qmax), 1, "sampled every 5ms")
	scrape := cs.latencyMS[classScrape]
	m.add("obs.scrape_ms", "ms", median(scrape), len(scrape), "/metrics scrape, client side")
	m.add("serve.table_ms", "ms", mean(cs.tableMS), len(cs.tableMS), "mean warm table=1 latency (restart-path re-searches included)")
	if o.trace {
		if err := tracePlaced(o, run, warm, reqs, load, rec, &m); err != nil {
			return nil, err
		}
	}
	out.metrics = m
	return out, nil
}

// sampleQueue polls the server's search queue depth every 5ms until
// stop is closed, then sends the deepest it saw on deepest.
func sampleQueue(srv *serve.Server) (stop chan struct{}, deepest chan int) {
	stop, deepest = make(chan struct{}), make(chan int, 1)
	go func() {
		d := 0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				deepest <- d
				return
			case <-t.C:
				d = max(d, srv.Status().QueueDepth)
			}
		}
	}()
	return stop, deepest
}

// placedSetupRepeats: the set-up is seconds long, so placed-mix repeats
// it three times, and toy runs once.
func placedSetupRepeats(o opts) int {
	if o.toy {
		return 1
	}
	return 3
}

// pairOf parses a /place path back into its pair.
func pairOf(path string) (g, h grid.Spec, err error) {
	u, err := url.Parse(path)
	if err != nil {
		return g, h, err
	}
	if g, err = grid.ParseSpec(u.Query().Get("from")); err != nil {
		return g, h, err
	}
	h, err = grid.ParseSpec(u.Query().Get("to"))
	return g, h, err
}

// tracePlaced adds the per-layer metrics of the traced requests and the
// in-process probes.
func tracePlaced(o opts, run *placedRun, warm []warmPair, reqs []request, load *loadResult, rec *recorder, m *metricSet) error {
	spans, roots, err := rec.checked()
	if err != nil {
		return err
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
	}
	for _, c := range []int{classWarm, classCold, classWait} {
		name := classNames[c]
		m.add("http.client_us."+name, "us", median(byName["http.client."+name]), len(byName["http.client."+name]), "median, client send to body read")
		m.add("serve.handler_us."+name, "us", median(byName["serve.handler."+name]), len(byName["serve.handler."+name]), "median, middleware around Handler()")
	}
	// Probes on sampled warm pairs, in-process.
	rng := rand.New(rand.NewSource(o.seed + 1))
	var canonUS, placeUS []float64
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		wp := warm[rng.Intn(len(warm))]
		g := relabel(wp.g, rng)
		t := time.Now()
		if _, err := catalog.CanonicalPair(g, wp.h); err != nil {
			return err
		}
		canonUS = append(canonUS, float64(time.Since(t))/1e3)
		t = time.Now()
		if _, err := run.srv.Place(ctx, g, wp.h, false); err != nil {
			return err
		}
		placeUS = append(placeUS, float64(time.Since(t))/1e3)
	}
	m.add("catalog.canonical_us", "us", median(canonUS), len(canonUS), "probe of CanonicalPair on sampled warm pairs")
	m.add("serve.place_us", "us", median(placeUS), len(placeUS), "probe of in-process Server.Place on sampled warm pairs")
	var tracedWarm, plainWarm []float64
	for i, rq := range reqs {
		if rq.class != classWarm || !load.samples[i].ok {
			continue
		}
		ms := float64(load.samples[i].latency) / 1e6
		if rq.traced {
			tracedWarm = append(tracedWarm, ms)
		} else {
			plainWarm = append(plainWarm, ms)
		}
	}
	m.add("trace.overhead_s", "s", (median(tracedWarm)-median(plainWarm))/1e3, len(tracedWarm), "traced - untraced warm p50, alternate warm requests of one window")
	m.add("trace.roots", "count", float64(roots), roots, fmt.Sprintf("root trees checked, tolerance %.1f%%", 100*treeTolerance))
	return writeTrace(rec, o, "placed-mix")
}
