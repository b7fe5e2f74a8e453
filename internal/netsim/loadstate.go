// LoadState is the incremental form of the static congestion and
// dilation measurement: the guest's edges are routed once into a dense
// per-directed-link load array, and from then on a node move re-routes
// only the O(degree) edges incident to the moved nodes instead of the
// whole graph. It exists for the placement engine's annealing pass,
// where the same placement is perturbed hundreds of thousands of times
// and full re-measurement per move (O(|E|·distance)) is the scaling
// wall.
//
// All aggregates are maintained exactly, in integers, so a LoadState
// driven through any move sequence reports bit-identical stats to a
// fresh Congestion + EdgeDilation measurement of the same table (the
// delta-vs-full parity tests pin this):
//
//   - per-link loads live in a flat []int32 indexed by link rank
//     (grid.LinkRanker), with MaxLink maintained through a bucket count
//     per load value — a max that decreases in O(1) amortized instead
//     of a rescan;
//   - TotalHops and UsedLinks update as routes are added/removed;
//   - per-edge routed distances feed the same bucket scheme for the
//     max-dilation counter, plus a running sum for average dilation.
//
// Construction is the remaining O(|E|·distance) cost, so the initial
// routing stripes edge blocks across the internal/par pool: each worker
// walks its edges into a pooled per-worker load slab plus a local
// distance histogram (the pattern the dense Congestion accumulator
// uses), the slabs merge by link rank, and the load-value bucket
// counters are derived from the merged array — integer sums commute, so
// the built state is bit-identical to a serial walk at any worker
// count.
//
// The placement table and its inverse are []int32, so a LoadState
// addresses hosts below 2³¹ nodes; NewLoadState refuses larger hosts.
//
// After construction a LoadState is single-goroutine state: moves are
// sequential by design (the annealing pass is deterministic), so
// nothing is locked.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"torusmesh/internal/grid"
	"torusmesh/internal/par"
	"torusmesh/internal/taskgraph"
)

// maxHostNodes is the largest host a LoadState addresses: host ranks
// live in []int32 tables.
const maxHostNodes = math.MaxInt32

// loadStripeMinEdges is the edge count below which the initial routing
// stays serial: striping pays for pooled slabs and a merge, which a
// small graph never amortizes. Either path builds bit-identical state.
const loadStripeMinEdges = 4096

// LoadState holds the incrementally maintained routing state of one
// placement. Build one with NewLoadState; mutate it with Swap and
// Permute; read costs with Stats and Dilation.
type LoadState struct {
	nw  *Network
	tg  *taskgraph.Graph
	p   []int32   // guest rank -> host rank
	inv []int32   // host rank -> guest rank, -1 when unoccupied
	inc [][]int32 // per-guest incident edge indices (taskgraph.Incidence)

	load     []int32 // per directed link, indexed by link rank
	loadHist []int32 // loadHist[v] = links currently at load v (v >= 1)
	maxLink  int
	used     int
	hops     int

	distHist []int32 // distHist[d] = edges currently routed at distance d (d >= 1)
	maxDist  int
	distSum  int64

	cur, target grid.Node // walk scratch
	stamp       []int32   // per-edge epoch marks of the current move
	epoch       int32
	touched     []int32 // edge indices the current move re-routes
}

// NewLoadState validates the placement and routes every task edge once
// (striped across the internal/par pool on large graphs), building the
// dense load array and the bucket counters. Hosts of more than 2³¹-1
// nodes are refused. The placement is copied; the caller's slice is not
// retained.
func NewLoadState(nw *Network, tg *taskgraph.Graph, p Placement) (*LoadState, error) {
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	// The host-size guard runs before placement validation: validation
	// allocates host-sized scratch, which on the hosts the guard refuses
	// is exactly the allocation to avoid.
	if nw.n > maxHostNodes {
		return nil, fmt.Errorf("netsim: load state addresses host ranks below 2^31, but host %s has %d nodes", nw.Spec, nw.n)
	}
	if err := p.Validate(nw, tg.N); err != nil {
		return nil, err
	}
	ls := &LoadState{
		nw:       nw,
		tg:       tg,
		p:        make([]int32, len(p)),
		inv:      make([]int32, nw.n),
		inc:      tg.Incidence(),
		load:     make([]int32, nw.LinkSlots()),
		loadHist: make([]int32, 8),
		distHist: make([]int32, 8),
		cur:      make(grid.Node, nw.shape.Dim()),
		target:   make(grid.Node, nw.shape.Dim()),
		stamp:    make([]int32, len(tg.Edges)),
	}
	for i := range ls.inv {
		ls.inv[i] = -1
	}
	for g, h := range p {
		ls.p[g] = int32(h)
		ls.inv[h] = int32(g)
	}
	ls.routeInitial()
	return ls, nil
}

// HostOf returns the host rank guest g is currently placed on.
func (ls *LoadState) HostOf(g int) int { return int(ls.p[g]) }

// CopyTableInto writes the current placement table into dst, which must
// have length tg.N — the snapshot form consumers take when they need
// the whole table (re-validation, best-visited bookkeeping) rather than
// single lookups.
func (ls *LoadState) CopyTableInto(dst []int) {
	for g, h := range ls.p {
		dst[g] = int(h)
	}
}

// GuestAt returns the guest placed on host rank h, or -1 when the slot
// is unoccupied (placements smaller than the host leave holes).
func (ls *LoadState) GuestAt(h int) int { return int(ls.inv[h]) }

// Stats returns the congestion aggregates of the current placement —
// bit-identical to Congestion on the same table.
func (ls *LoadState) Stats() CongestionStats {
	return CongestionStats{MaxLink: ls.maxLink, TotalHops: ls.hops, UsedLinks: ls.used}
}

// Dilation returns the maximum and mean routed edge distance of the
// current placement — bit-identical to grid.Spec.EdgeDilation of the
// guest over the same table (dimension-ordered routing is minimal, so
// routed length equals graph distance).
func (ls *LoadState) Dilation() (max int, avg float64) {
	if len(ls.tg.Edges) > 0 {
		avg = float64(ls.distSum) / float64(len(ls.tg.Edges))
	}
	return ls.maxDist, avg
}

// Swap exchanges the host images of guests u and v — the annealing
// pass's basic move — re-routing only their incident edges.
func (ls *LoadState) Swap(u, v int) {
	ls.beginMove()
	ls.touch(u)
	ls.touch(v)
	ls.removeTouched()
	hu, hv := ls.p[u], ls.p[v]
	ls.p[u], ls.p[v] = hv, hu
	ls.inv[hv] = int32(u)
	ls.inv[hu] = int32(v)
	ls.addTouched()
}

// Permute moves each guests[i] to hosts[i], where hosts must be a
// permutation of the guests' current images (so injectivity is
// preserved by construction) — the generic move behind segment
// reversals and axis-block swaps. Only the edges incident to the moved
// guests are re-routed. Undo by calling Permute again with the previous
// images.
func (ls *LoadState) Permute(guests []int32, hosts []int32) {
	ls.beginMove()
	for _, g := range guests {
		ls.touch(int(g))
	}
	ls.removeTouched()
	for _, g := range guests {
		ls.inv[ls.p[g]] = -1
	}
	for i, g := range guests {
		ls.p[g] = hosts[i]
		ls.inv[hosts[i]] = g
	}
	ls.addTouched()
}

// Recheck re-measures the placement from scratch and reports whether
// the incremental aggregates drifted — the safety net behind the
// annealing pass's periodic re-validation.
func (ls *LoadState) Recheck() error {
	tab := make([]int, len(ls.p))
	ls.CopyTableInto(tab)
	want, err := Congestion(ls.nw, ls.tg, Placement(tab))
	if err != nil {
		return err
	}
	if got := ls.Stats(); got != want {
		return fmt.Errorf("netsim: incremental congestion drifted: have %+v, full measurement %+v", got, want)
	}
	return nil
}

// initScratch is the pooled per-worker state of the striped initial
// routing: a slots-sized load slab, a local distance histogram, and the
// coordinate scratch of the walks.
type initScratch struct {
	load        []int32
	distHist    []int32
	cur, target grid.Node
}

// routeInitial routes every task edge of the starting placement. Large
// graphs stripe edge blocks across the par pool: per-worker slabs merge
// by link rank and local distance histograms merge by bucket (integer
// sums, so the merge commutes), and the load-value bucket counters are
// then derived from the merged load array — the exact state the serial
// per-edge walk builds.
func (ls *LoadState) routeInitial() {
	edges := len(ls.tg.Edges)
	if edges < loadStripeMinEdges || par.Workers() == 1 {
		for e := 0; e < edges; e++ {
			ls.routeEdge(e, +1)
		}
		return
	}
	slots := len(ls.load)
	dim := ls.nw.shape.Dim()
	scratch := sync.Pool{New: func() any {
		return &initScratch{
			load:     make([]int32, slots),
			distHist: make([]int32, 8),
			cur:      make(grid.Node, dim),
			target:   make(grid.Node, dim),
		}
	}}
	var mu sync.Mutex
	par.Blocks(edges, par.Grain(edges, 256), func(lo, hi int) {
		sc := scratch.Get().(*initScratch)
		bumpLoad := func(rank int) { sc.load[rank]++ }
		localHops := 0
		var localSum int64
		for i := lo; i < hi; i++ {
			ed := ls.tg.Edges[i]
			a, b := int(ls.p[ed[0]]), int(ls.p[ed[1]])
			d := ls.nw.walkLinks(a, b, sc.cur, sc.target, bumpLoad)
			ls.nw.walkLinks(b, a, sc.cur, sc.target, bumpLoad)
			localHops += 2 * d
			localSum += int64(d)
			if d > 0 {
				sc.distHist = bump(sc.distHist, d)
			}
		}
		mu.Lock()
		ls.hops += localHops
		ls.distSum += localSum
		for k, v := range sc.load {
			if v != 0 {
				ls.load[k] += v
				sc.load[k] = 0
			}
		}
		for d, v := range sc.distHist {
			if v != 0 {
				for d >= len(ls.distHist) {
					ls.distHist = append(ls.distHist, make([]int32, len(ls.distHist))...)
				}
				ls.distHist[d] += v
				sc.distHist[d] = 0
			}
		}
		mu.Unlock()
		scratch.Put(sc)
	})
	// Derive the load-value bucket counters — loadHist[v] counts links
	// at load v — from the merged loads; they depend only on the final
	// array, not on the merge order.
	for _, v := range ls.load {
		if v > 0 {
			ls.used++
			ls.loadHist = bump(ls.loadHist, int(v))
			if int(v) > ls.maxLink {
				ls.maxLink = int(v)
			}
		}
	}
	for d := len(ls.distHist) - 1; d > 0; d-- {
		if ls.distHist[d] != 0 {
			ls.maxDist = d
			break
		}
	}
}

// beginMove starts a new move epoch for the touched-edge dedup.
func (ls *LoadState) beginMove() {
	ls.epoch++
	ls.touched = ls.touched[:0]
	if ls.epoch == 0 { // int32 wrap: invalidate every stale stamp
		for i := range ls.stamp {
			ls.stamp[i] = -1
		}
		ls.epoch = 1
	}
}

// touch marks every edge incident to guest g for re-routing, once per
// move even when both endpoints moved.
func (ls *LoadState) touch(g int) {
	for _, e := range ls.inc[g] {
		if ls.stamp[e] != ls.epoch {
			ls.stamp[e] = ls.epoch
			ls.touched = append(ls.touched, e)
		}
	}
}

func (ls *LoadState) removeTouched() {
	for _, e := range ls.touched {
		ls.routeEdge(int(e), -1)
	}
}

func (ls *LoadState) addTouched() {
	for _, e := range ls.touched {
		ls.routeEdge(int(e), +1)
	}
}

// routeEdge adds (delta +1) or removes (delta -1) the two directed
// routes of task edge e under the current placement, maintaining the
// load array, the bucket counters, and the dilation aggregates.
// Removal re-walks the same deterministic route the addition walked:
// routes depend only on the endpoints, so the decrements mirror the
// increments exactly.
func (ls *LoadState) routeEdge(e int, delta int32) {
	ed := ls.tg.Edges[e]
	a, b := int(ls.p[ed[0]]), int(ls.p[ed[1]])
	d := ls.walk(a, b, delta)
	ls.walk(b, a, delta)
	ls.hops += int(delta) * 2 * d
	ls.distSum += int64(delta) * int64(d)
	if d > 0 {
		if delta > 0 {
			ls.distHist = bump(ls.distHist, d)
			if d > ls.maxDist {
				ls.maxDist = d
			}
		} else {
			ls.distHist[d]--
			if d == ls.maxDist && ls.distHist[d] == 0 {
				for ls.maxDist > 0 && ls.distHist[ls.maxDist] == 0 {
					ls.maxDist--
				}
			}
		}
	}
}

// walk applies delta to every link of the dimension-ordered route
// src -> dst, maintaining per-load bucket counts, UsedLinks and the
// cheap-decrease MaxLink, and returns the hop count.
func (ls *LoadState) walk(src, dst int, delta int32) int {
	return ls.nw.walkLinks(src, dst, ls.cur, ls.target, func(rank int) {
		old := ls.load[rank]
		nu := old + delta
		ls.load[rank] = nu
		if delta > 0 {
			if old == 0 {
				ls.used++
			} else {
				ls.loadHist[old]--
			}
			ls.loadHist = bump(ls.loadHist, int(nu))
			if int(nu) > ls.maxLink {
				ls.maxLink = int(nu)
			}
		} else {
			ls.loadHist[old]--
			if nu == 0 {
				ls.used--
			} else {
				ls.loadHist[nu]++
			}
			if int(old) == ls.maxLink && ls.loadHist[old] == 0 {
				for ls.maxLink > 0 && ls.loadHist[ls.maxLink] == 0 {
					ls.maxLink--
				}
			}
		}
	})
}

// bump increments hist[v], growing the bucket array as needed.
func bump(hist []int32, v int) []int32 {
	for v >= len(hist) {
		hist = append(hist, make([]int32, len(hist))...)
	}
	hist[v]++
	return hist
}
