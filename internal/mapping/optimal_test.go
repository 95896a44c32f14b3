package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

func TestExhaustiveFindsKnownOptimum(t *testing.T) {
	machine := topology.Harpertown()
	m := pairMatrix(8) // pairs (i, i+4)
	p, err := Exhaustive{}.Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 8)
	// Every pair on a shared L2 is the provable optimum.
	want := 4 * 100 * machine.Latency(0, 1)
	if got := Cost(m, machine, p); got != want {
		t.Errorf("optimal cost = %d, want %d", got, want)
	}
	if (Exhaustive{}).Name() != "exhaustive-optimal" {
		t.Error("name")
	}
}

func TestExhaustiveLimits(t *testing.T) {
	machine := topology.Build("m16", topology.Spec{
		Chips: 2, L2PerChip: 2, CoresPerL2: 4,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
	if _, err := (Exhaustive{}).Map(comm.NewMatrix(16), machine); err == nil {
		t.Error("16 threads accepted by exhaustive search")
	}
	if _, err := (Exhaustive{}).Map(comm.NewMatrix(4), topology.Harpertown()); err == nil {
		t.Error("thread/core mismatch accepted")
	}
}

// TestEdmondsNearOptimal measures the hierarchical mapper's optimality gap
// on random structured matrices. The paper's algorithm is a heuristic above
// the pair level ("does not guarantee ... the most amount of
// communication"), but it should stay close to optimal on 8 cores.
func TestEdmondsNearOptimal(t *testing.T) {
	machine := topology.Harpertown()
	rng := rand.New(rand.NewSource(21))
	worst := 1.0
	for trial := 0; trial < 30; trial++ {
		m := comm.NewMatrix(8)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				m.Add(i, j, uint64(rng.Intn(100)))
			}
		}
		p, err := NewEdmonds().Map(m, machine)
		if err != nil {
			t.Fatal(err)
		}
		gap, err := OptimalityGap(m, machine, p)
		if err != nil {
			t.Fatal(err)
		}
		if gap < 1 {
			t.Fatalf("gap below 1: %v (exhaustive search broken?)", gap)
		}
		if gap > worst {
			worst = gap
		}
	}
	if worst > 1.35 {
		t.Errorf("hierarchical mapper strayed %.0f%% above optimal", (worst-1)*100)
	}
	t.Logf("worst optimality gap over 30 random matrices: %.3f", worst)
}

func TestOptimalityGapZeroMatrix(t *testing.T) {
	machine := topology.Harpertown()
	m := comm.NewMatrix(8)
	id := []int{0, 1, 2, 3, 4, 5, 6, 7}
	gap, err := OptimalityGap(m, machine, id)
	if err != nil || gap != 1 {
		t.Errorf("gap = %v, %v; want 1, nil", gap, err)
	}
}

// MaxExhaustiveThreads bounds the exhaustive optimal mapper (N! candidate
// placements).
const MaxExhaustiveThreads = 10

// Exhaustive finds a provably cost-optimal placement by enumerating every
// permutation. The mapping problem is NP-hard in general (Section V-A), so
// this is only feasible for small machines; it exists to measure how close
// the polynomial hierarchical mapper gets (the paper's Edmonds approach is
// a heuristic above the pair level).
type Exhaustive struct{}

// Name implements Algorithm.
func (Exhaustive) Name() string { return "exhaustive-optimal" }

// Map implements Algorithm.
func (Exhaustive) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	n := m.N()
	if n != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores", n, machine.NumCores())
	}
	if n > MaxExhaustiveThreads {
		return nil, fmt.Errorf("mapping: exhaustive search limited to %d threads, got %d",
			MaxExhaustiveThreads, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := append([]int(nil), perm...)
	bestCost := Cost(m, machine, perm)

	// Heap's algorithm over all permutations.
	c := make([]int, n)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if cost := Cost(m, machine, perm); cost < bestCost {
				bestCost = cost
				copy(best, perm)
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return best, nil
}

// OptimalityGap returns the ratio cost(placement)/cost(optimal) for a
// placement, using the exhaustive mapper as the reference. A gap of 1 means
// the placement is provably optimal. Returns an error for machines beyond
// the exhaustive limit or when the optimal cost is zero with a non-zero
// candidate cost.
func OptimalityGap(m *comm.Matrix, machine *topology.Machine, placement []int) (float64, error) {
	opt, err := (Exhaustive{}).Map(m, machine)
	if err != nil {
		return 0, err
	}
	optCost := Cost(m, machine, opt)
	cost := Cost(m, machine, placement)
	if optCost == 0 {
		if cost == 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("mapping: optimal cost 0 but placement cost %d", cost)
	}
	return float64(cost) / float64(optCost), nil
}
