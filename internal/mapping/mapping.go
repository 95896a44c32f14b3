// Package mapping turns a communication matrix into a thread -> core
// placement, implementing the hierarchical matching algorithm of
// Section V-A: Edmonds maximum weight perfect matching pairs the threads
// that communicate most onto cores sharing an L2 cache, then the paper's H
// heuristic aggregates communication between pairs ("pairs of pairs") and
// matching runs again for the next level of the memory hierarchy.
//
// The package also provides the baselines used in the evaluation and the
// ablation benches: the OS-scheduler model (random placements), greedy
// matching, and Scotch-style recursive bipartitioning.
package mapping

import (
	"fmt"
	"math/rand"

	"tlbmap/internal/comm"
	"tlbmap/internal/matching"
	"tlbmap/internal/topology"
)

// Algorithm computes a placement (thread -> core permutation) from a
// communication matrix and a machine topology.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Map returns the placement. The matrix must have exactly one thread
	// per machine core.
	Map(m *comm.Matrix, machine *topology.Machine) ([]int, error)
}

// Cost scores a placement: the sum over all thread pairs of their
// communication weighted by the interconnect latency between their cores.
// Lower is better; it is the objective the hierarchical mapper minimizes by
// keeping heavy pairs on nearby cores.
func Cost(m *comm.Matrix, machine *topology.Machine, placement []int) uint64 {
	var total uint64
	m.ForEach(func(i, j int, w uint64) {
		total += w * machine.Latency(placement[i], placement[j])
	})
	return total
}

// HWeight implements the paper's pairs-of-pairs heuristic function
//
//	H[(x,y),(z,k)] = M[x,z] + M[x,k] + M[y,z] + M[y,k]
//
// generalized to groups of any size: the total communication between two
// groups of threads.
func HWeight(m *comm.Matrix, a, b []int) uint64 {
	var w uint64
	for _, x := range a {
		for _, y := range b {
			w += m.At(x, y)
		}
	}
	return w
}

// solver is the pair-matching primitive a hierarchical mapper plugs in:
// it receives the group-to-group weight matrix and returns a mate array.
type solver func(w [][]int64) ([]int, int64, error)

// Hierarchical is the paper's mapper: Edmonds matching applied level by
// level up the sharing tree.
type Hierarchical struct {
	name  string
	solve solver
}

// NewEdmonds returns the mapper used throughout the paper's evaluation:
// exact maximum weight perfect matching at every level.
func NewEdmonds() *Hierarchical {
	return &Hierarchical{name: "edmonds", solve: matching.MaxWeightPerfectMatching}
}

// NewGreedyMatch returns the ablation variant that replaces Edmonds
// matching with greedy heaviest-edge-first matching.
func NewGreedyMatch() *Hierarchical {
	return &Hierarchical{name: "greedy-match", solve: matching.Greedy}
}

// Name implements Algorithm.
func (h *Hierarchical) Name() string { return h.name }

// Map implements Algorithm. Groups of threads are repeatedly paired by the
// matching solver until one group per top-level domain remains; the nested
// merge order then directly yields the core assignment, because cores are
// numbered so that consecutive cores share the lower levels of the
// hierarchy (Figure 3).
func (h *Hierarchical) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	n := m.N()
	if n != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores; the paper maps one thread per core", n, machine.NumCores())
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("mapping: hierarchical matching requires a power-of-two thread count, got %d", n)
	}
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	for len(groups) > 1 {
		w := groupMatrix(m, groups)
		mate, _, err := h.solve(w)
		if err != nil {
			return nil, fmt.Errorf("mapping: level with %d groups: %w", len(groups), err)
		}
		merged := make([][]int, 0, len(groups)/2)
		for i, j := range mate {
			if j > i {
				g := make([]int, 0, len(groups[i])+len(groups[j]))
				g = append(g, groups[i]...)
				g = append(g, groups[j]...)
				merged = append(merged, g)
			}
		}
		groups = merged
	}
	placement := make([]int, n)
	for core, thread := range groups[0] {
		placement[thread] = core
	}
	return placement, nil
}

// groupMatrix aggregates the thread communication matrix into a
// group-to-group weight matrix with the H heuristic.
func groupMatrix(m *comm.Matrix, groups [][]int) [][]int64 {
	k := len(groups)
	w := make([][]int64, k)
	for i := range w {
		w[i] = make([]int64, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := int64(HWeight(m, groups[i], groups[j]))
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// OSScheduler models the operating system scheduler baseline of the
// evaluation (the "OS" bars of Figures 6-9): a placement chosen without any
// knowledge of communication. Each call produces a fresh random permutation,
// reproducing the high run-to-run variance the paper observes for the OS
// scheduler (Table V).
type OSScheduler struct {
	rng *rand.Rand
}

// NewOSScheduler returns an OS-scheduler model seeded for reproducibility.
func NewOSScheduler(seed int64) *OSScheduler {
	return &OSScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Map implements Algorithm.
func (o *OSScheduler) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	if m.N() != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores", m.N(), machine.NumCores())
	}
	return o.rng.Perm(m.N()), nil
}

// RecursiveBipartition is the Scotch-style dual recursive bipartitioning
// alternative mentioned in Section V-A: split the threads into two halves
// minimizing the communication cut, assign the halves to the two subtrees
// of the topology, and recurse.
type RecursiveBipartition struct{}

// Name implements Algorithm.
func (RecursiveBipartition) Name() string { return "recursive-bipartition" }

// Map implements Algorithm.
func (RecursiveBipartition) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	n := m.N()
	if n != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores", n, machine.NumCores())
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("mapping: recursive bipartitioning requires a power-of-two thread count, got %d", n)
	}
	threads := make([]int, n)
	for i := range threads {
		threads[i] = i
	}
	order := bipartition(m, threads)
	placement := make([]int, n)
	for core, thread := range order {
		placement[thread] = core
	}
	return placement, nil
}

// bipartition recursively splits threads into halves that minimize the
// communication crossing the split, returning the threads in final core
// order. Splits of up to 16 threads are solved exactly by enumeration;
// larger ones use a Kernighan-Lin style swap refinement.
func bipartition(m *comm.Matrix, threads []int) []int {
	if len(threads) <= 2 {
		return threads
	}
	half := len(threads) / 2
	var bestA, bestB []int
	if len(threads) <= 16 {
		bestA, bestB = exactSplit(m, threads, half)
	} else {
		bestA, bestB = klSplit(m, threads, half)
	}
	out := bipartition(m, bestA)
	return append(out, bipartition(m, bestB)...)
}

// exactSplit enumerates all balanced splits (fixing the first thread on
// side A to halve the search space) and returns the one with minimum cut.
func exactSplit(m *comm.Matrix, threads []int, half int) (a, b []int) {
	n := len(threads)
	bestCut := ^uint64(0)
	var best uint64
	// Enumerate subsets of {1..n-1} of size half-1 to join threads[0].
	for mask := uint64(0); mask < 1<<(n-1); mask++ {
		if popcount(mask) != half-1 {
			continue
		}
		full := mask<<1 | 1 // threads[0] always on side A
		var cut uint64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (full >> i & 1) != (full >> j & 1) {
					cut += m.At(threads[i], threads[j])
				}
			}
		}
		if cut < bestCut {
			bestCut, best = cut, full
		}
	}
	for i := 0; i < n; i++ {
		if best>>i&1 == 1 {
			a = append(a, threads[i])
		} else {
			b = append(b, threads[i])
		}
	}
	return a, b
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// klSplit starts from the natural split and greedily swaps the pair of
// threads that reduces the cut the most until no improving swap remains.
func klSplit(m *comm.Matrix, threads []int, half int) (a, b []int) {
	a = append([]int(nil), threads[:half]...)
	b = append([]int(nil), threads[half:]...)
	cut := func() uint64 {
		var c uint64
		for _, x := range a {
			for _, y := range b {
				c += m.At(x, y)
			}
		}
		return c
	}
	cur := cut()
	for {
		bi, bj := -1, -1
		best := cur
		for i := range a {
			for j := range b {
				a[i], b[j] = b[j], a[i]
				if c := cut(); c < best {
					best, bi, bj = c, i, j
				}
				a[i], b[j] = b[j], a[i]
			}
		}
		if bi == -1 {
			return a, b
		}
		a[bi], b[bj] = b[bj], a[bi]
		cur = best
	}
}
