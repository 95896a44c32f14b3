package mapping

import (
	"fmt"

	"tlbmap/internal/comm"
	"tlbmap/internal/matching"
	"tlbmap/internal/topology"
)

// Tuning knobs of the multilevel mapper. They trade mapping quality
// against time; the defaults keep a 1024-thread mapping well under a
// second while FuzzMultilevelVsBlossom bounds the quality loss.
const (
	// mlCoarseCutoff: at or below this many groups a level is paired with
	// the exact blossom instead of greedy heavy-edge matching — the top of
	// the hierarchy is where a bad pair is most expensive, and a dense
	// 16x16 blossom is microseconds.
	mlCoarseCutoff = 16
	// mlRefinePasses bounds the improving-swap sweeps per level.
	mlRefinePasses = 4
	// mlRefineEdgeCap bounds how many of the heaviest edges drive swap
	// attempts per pass.
	mlRefineEdgeCap = 2048
	// mlRefineCandidates bounds the candidate slots tried per edge
	// endpoint.
	mlRefineCandidates = 16
	// mlRefineWorkCap bounds the adjacency terms evaluated per level, so
	// dense communication graphs (all-to-all workloads) degrade to partial
	// refinement instead of quadratic blowup. Sparse graphs — the realistic
	// manycore case — never hit it.
	mlRefineWorkCap = 8_000_000
)

// Multilevel is the scalable mapper: coarsen the communication graph by
// greedy heavy-edge matching level by level (solving the coarsest levels
// exactly with the blossom), derive the placement from the nested merge
// order exactly like the paper's hierarchical mapper, then refine each
// level top-down with latency-driven block swaps. Time is O(E log E) per
// level on a sparse communication graph — near-linear in practice —
// versus the O(T³) blossom at every level, which is what makes 1024
// threads feasible.
type Multilevel struct{}

// NewMultilevel returns the multilevel coarsen–match–refine mapper.
func NewMultilevel() *Multilevel { return &Multilevel{} }

// Name implements Algorithm.
func (*Multilevel) Name() string { return "multilevel" }

// mlLevel is one coarsening level: the contracted graph over its groups
// and, after pairing, the two child groups composing each next-level
// group.
type mlLevel struct {
	groups int
	edges  []matching.Edge
	pairs  [][2]int
}

// Map implements Algorithm.
func (*Multilevel) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	n := m.N()
	if n != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores; the paper maps one thread per core", n, machine.NumCores())
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("mapping: multilevel mapping requires a power-of-two thread count, got %d", n)
	}
	placement := make([]int, n)
	if n == 1 {
		return placement, nil
	}

	// Coarsening: pair, contract, repeat until one group remains.
	edges := make([]matching.Edge, 0, m.NNZ())
	m.ForEach(func(i, j int, w uint64) {
		edges = append(edges, matching.Edge{U: i, V: j, W: int64(w)})
	})
	var levels []*mlLevel
	g := n
	for g > 1 {
		lv := &mlLevel{groups: g, edges: edges}
		mate, err := pairLevel(g, edges)
		if err != nil {
			return nil, fmt.Errorf("mapping: multilevel level with %d groups: %w", g, err)
		}
		newID := make([]int, g)
		next := 0
		for i := 0; i < g; i++ {
			if mate[i] > i {
				newID[i], newID[mate[i]] = next, next
				lv.pairs = append(lv.pairs, [2]int{i, mate[i]})
				next++
			}
		}
		levels = append(levels, lv)
		edges = contract(edges, newID)
		g = next
	}

	// Uncoarsening: expand the merge order level by level — cores are
	// numbered so consecutive cores share the lower hierarchy levels, so
	// the order is the placement — refining each level with block swaps
	// before descending.
	order := []int{0}
	for l := len(levels) - 1; l >= 0; l-- {
		next := make([]int, 0, 2*len(order))
		for _, gr := range order {
			p := levels[l].pairs[gr]
			next = append(next, p[0], p[1])
		}
		order = next
		refineLevel(order, levels[l], machine, n)
	}
	for core, thread := range order {
		placement[thread] = core
	}
	return placement, nil
}

// pairLevel pairs one level's groups: greedy heavy-edge matching above the
// coarse cutoff, exact blossom matching at or below it.
func pairLevel(g int, edges []matching.Edge) ([]int, error) {
	if g > mlCoarseCutoff {
		mate, _ := matching.HeavyEdgePairing(g, edges)
		matching.ImprovePairing(g, edges, mate)
		return mate, nil
	}
	w := make([][]int64, g)
	for i := range w {
		w[i] = make([]int64, g)
	}
	for _, e := range edges {
		w[e.U][e.V], w[e.V][e.U] = e.W, e.W
	}
	mate, _, err := matching.MaxWeightPerfectMatching(w)
	return mate, err
}

// contract aggregates a level's edges onto the next level's group IDs,
// dropping intra-group edges. Output edges are sorted by (U, V) so the
// whole pipeline is deterministic regardless of map iteration order.
func contract(edges []matching.Edge, newID []int) []matching.Edge {
	agg := make(map[uint64]int64, len(edges))
	for _, e := range edges {
		a, b := newID[e.U], newID[e.V]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		agg[uint64(a)<<32|uint64(b)] += e.W
	}
	out := make([]matching.Edge, 0, len(agg))
	for k, w := range agg {
		out = append(out, matching.Edge{U: int(k >> 32), V: int(k & 0xffffffff), W: w})
	}
	matching.SortEdges(out)
	return out
}

// refineLevel improves one level's slot order in place with local swaps.
//
// At a level with G groups each slot is an aligned block of n/G
// consecutive cores; because every machine fanout divides the power-of-two
// core count, two distinct aligned blocks are uniformly distant — every
// core of one is the same latency from every core of the other (their
// common ancestor is the ancestor of the two block roots). Evaluating a
// swap on the blocks' first cores is therefore exact, not an estimate.
//
// The heaviest contracted edges nominate moves: for each edge, slots near
// either endpoint are tried as new homes for the other, and the best
// strictly-improving swap (full delta over both groups' adjacency) is
// applied immediately.
func refineLevel(order []int, lv *mlLevel, machine *topology.Machine, n int) {
	g := len(order)
	if g < 4 {
		return
	}
	blockSize := n / g
	slotOf := make([]int, lv.groups)
	for i := range slotOf {
		slotOf[i] = -1
	}
	for s, gr := range order {
		slotOf[gr] = s
	}
	type half struct {
		to int
		w  int64
	}
	adj := make([][]half, lv.groups)
	for _, e := range lv.edges {
		adj[e.U] = append(adj[e.U], half{e.V, e.W})
		adj[e.V] = append(adj[e.V], half{e.U, e.W})
	}
	// lat[p*g+q] is the latency between slots p and q (0 on the
	// diagonal), built once per level: the swap search below reads it once
	// per adjacency term, and Latency is symmetric.
	lat := make([]int64, g*g)
	for p := 0; p < g; p++ {
		for q := p + 1; q < g; q++ {
			l := int64(machine.Latency(p*blockSize, q*blockSize))
			lat[p*g+q], lat[q*g+p] = l, l
		}
	}
	work := 0
	// swapDelta is the exact cost change of exchanging the slots of groups
	// x and y (negative is an improvement). The x–y edge itself is
	// unaffected: latency is symmetric in the two slots.
	swapDelta := func(x, y int) int64 {
		work += len(adj[x]) + len(adj[y])
		sx, sy := slotOf[x], slotOf[y]
		var d int64
		for _, h := range adj[x] {
			if h.to == y {
				continue
			}
			sz := slotOf[h.to]
			d += h.w * (lat[sy*g+sz] - lat[sx*g+sz])
		}
		for _, h := range adj[y] {
			if h.to == x {
				continue
			}
			sz := slotOf[h.to]
			d += h.w * (lat[sx*g+sz] - lat[sy*g+sz])
		}
		return d
	}
	// tryMove looks for a better home for group mv among the slots nearest
	// (by index, hence by hierarchy) to anchor's slot, and applies the best
	// improving swap. Returns whether it improved.
	tryMove := func(anchor, mv int) bool {
		sa, sm := slotOf[anchor], slotOf[mv]
		if lat[sa*g+sm] == 0 {
			return false
		}
		// Candidate slots: a window of mlRefineCandidates slots centered
		// on the anchor. Nearby slot indices share the low hierarchy
		// levels, so the window holds exactly the slots that could bring
		// mv closer to anchor.
		lo := sa - mlRefineCandidates/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + mlRefineCandidates + 1
		if hi > g {
			hi = g
		}
		bestDelta := int64(0)
		bestSlot := -1
		for cand := lo; cand < hi; cand++ {
			if cand == sm || cand == sa {
				continue
			}
			d := swapDelta(mv, order[cand])
			if d < bestDelta {
				bestDelta, bestSlot = d, cand
			}
		}
		if bestSlot < 0 {
			return false
		}
		occ := order[bestSlot]
		order[bestSlot], order[sm] = mv, occ
		slotOf[mv], slotOf[occ] = bestSlot, sm
		return true
	}
	edges := lv.edges
	if len(edges) > mlRefineEdgeCap {
		edges = edges[:mlRefineEdgeCap]
	}
	for pass := 0; pass < mlRefinePasses && work < mlRefineWorkCap; pass++ {
		improved := false
		for _, e := range edges {
			if work >= mlRefineWorkCap {
				break
			}
			if tryMove(e.U, e.V) {
				improved = true
			}
			if tryMove(e.V, e.U) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// DefaultAutoThreshold is where Auto hands a matrix to the multilevel
// mapper instead of the exact blossom hierarchy: 128 threads is the last
// size where O(T³) matching per level is still interactive.
const DefaultAutoThreshold = 128

// Auto picks the mapper by problem size: the paper-exact Edmonds blossom
// hierarchy up to DefaultAutoThreshold threads, the near-linear multilevel
// mapper above it. Existing small-machine results are bit-for-bit
// unchanged; manycore matrices stop being cubic.
type Auto struct {
	exact Algorithm
	fast  Algorithm
}

// NewAuto returns the size-dispatching mapper.
func NewAuto() *Auto {
	return &Auto{exact: NewEdmonds(), fast: NewMultilevel()}
}

// Name implements Algorithm.
func (*Auto) Name() string { return "auto" }

// Map implements Algorithm.
func (a *Auto) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	if m.N() <= DefaultAutoThreshold {
		return a.exact.Map(m, machine)
	}
	return a.fast.Map(m, machine)
}
