package mapping

import (
	"math/rand"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

func checkPermutation(t *testing.T, p []int, n int) {
	t.Helper()
	if len(p) != n {
		t.Fatalf("placement has %d entries, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for th, c := range p {
		if c < 0 || c >= n || seen[c] {
			t.Fatalf("invalid placement %v (thread %d -> core %d)", p, th, c)
		}
		seen[c] = true
	}
}

// chainMatrix builds the canonical domain-decomposition pattern: heavy
// communication between adjacent thread IDs.
func chainMatrix(n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i+1 < n; i++ {
		m.Add(i, i+1, 100)
	}
	return m
}

// pairMatrix links thread t with thread t+n/2 heavily (the LU-like
// distant pattern).
func pairMatrix(n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i < n/2; i++ {
		m.Add(i, i+n/2, 100)
	}
	return m
}

func TestEdmondsOnChainIsOptimal(t *testing.T) {
	machine := topology.Harpertown()
	m := chainMatrix(8)
	p, err := NewEdmonds().Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 8)
	// The identity is an optimal embedding of a chain; the mapper must
	// reach the same cost.
	id := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if got, want := Cost(m, machine, p), Cost(m, machine, id); got != want {
		t.Errorf("chain cost = %d, optimal = %d (placement %v)", got, want, p)
	}
}

func TestEdmondsOnDistantPairs(t *testing.T) {
	machine := topology.Harpertown()
	m := pairMatrix(8)
	p, err := NewEdmonds().Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 8)
	// Every heavy pair must land on a shared L2: cost = 4 pairs * 100 * 8.
	for i := 0; i < 4; i++ {
		if !machine.SameL2(p[i], p[i+4]) {
			t.Errorf("pair (%d,%d) split: cores %d and %d", i, i+4, p[i], p[i+4])
		}
	}
	if got := Cost(m, machine, p); got != 4*100*machine.Latency(0, 1) {
		t.Errorf("cost = %d", got)
	}
}

func TestEdmondsBeatsRandomOnStructuredPattern(t *testing.T) {
	machine := topology.Harpertown()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// A random structured matrix: random heavy pairs.
		m := comm.NewMatrix(8)
		perm := rng.Perm(8)
		for i := 0; i < 4; i++ {
			m.Add(perm[2*i], perm[2*i+1], uint64(50+rng.Intn(100)))
		}
		p, err := NewEdmonds().Map(m, machine)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, p, 8)
		random := rng.Perm(8)
		if Cost(m, machine, p) > Cost(m, machine, random) {
			t.Errorf("edmonds cost %d worse than random %d for %v",
				Cost(m, machine, p), Cost(m, machine, random), m)
		}
	}
}

func TestEdmondsErrors(t *testing.T) {
	machine := topology.Harpertown()
	if _, err := NewEdmonds().Map(comm.NewMatrix(4), machine); err == nil {
		t.Error("thread/core mismatch accepted")
	}
	m6 := topology.Build("m6", topology.Spec{Chips: 3, L2PerChip: 1, CoresPerL2: 2,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120})
	if _, err := NewEdmonds().Map(comm.NewMatrix(6), m6); err == nil {
		t.Error("non-power-of-two thread count accepted")
	}
}

func TestGreedyMatchMapperValid(t *testing.T) {
	machine := topology.Harpertown()
	p, err := NewGreedyMatch().Map(chainMatrix(8), machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 8)
	if NewGreedyMatch().Name() != "greedy-match" {
		t.Error("name")
	}
}

func TestHWeightMatchesPaperFormula(t *testing.T) {
	m := comm.NewMatrix(4)
	m.Add(0, 2, 1)
	m.Add(0, 3, 2)
	m.Add(1, 2, 4)
	m.Add(1, 3, 8)
	// H[(0,1),(2,3)] = M[0,2]+M[0,3]+M[1,2]+M[1,3] = 15.
	if got := HWeight(m, []int{0, 1}, []int{2, 3}); got != 15 {
		t.Errorf("HWeight = %d, want 15", got)
	}
}

func TestCostZeroWhenColocated(t *testing.T) {
	machine := topology.Harpertown()
	m := comm.NewMatrix(8)
	m.Add(0, 0, 5) // ignored
	if Cost(m, machine, []int{0, 1, 2, 3, 4, 5, 6, 7}) != 0 {
		t.Error("empty matrix should cost 0")
	}
}

func TestIdentityMapper(t *testing.T) {
	machine := topology.Harpertown()
	p, err := Identity{}.Map(comm.NewMatrix(8), machine)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p {
		if c != i {
			t.Errorf("identity[%d] = %d", i, c)
		}
	}
	if _, err := (Identity{}).Map(comm.NewMatrix(4), machine); err == nil {
		t.Error("size mismatch accepted")
	}
	if (Identity{}).Name() != "identity" {
		t.Error("name")
	}
}

func TestOSSchedulerRandomButValid(t *testing.T) {
	machine := topology.Harpertown()
	os := NewOSScheduler(3)
	m := comm.NewMatrix(8)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		p, err := os.Map(m, machine)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, p, 8)
		key := ""
		for _, c := range p {
			key += string(rune('0' + c))
		}
		seen[key] = true
	}
	if len(seen) < 3 {
		t.Errorf("OS scheduler produced only %d distinct placements in 10 draws", len(seen))
	}
	if os.Name() != "os" {
		t.Error("name")
	}
	if _, err := os.Map(comm.NewMatrix(4), machine); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestOSSchedulerReproducible(t *testing.T) {
	machine := topology.Harpertown()
	m := comm.NewMatrix(8)
	a, _ := NewOSScheduler(7).Map(m, machine)
	b, _ := NewOSScheduler(7).Map(m, machine)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different placements")
		}
	}
}

func TestRecursiveBipartition(t *testing.T) {
	machine := topology.Harpertown()
	rb := RecursiveBipartition{}
	if rb.Name() != "recursive-bipartition" {
		t.Error("name")
	}
	m := pairMatrix(8)
	p, err := rb.Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 8)
	// The heavy pairs must not cross the chip boundary (the first cut).
	for i := 0; i < 4; i++ {
		if !machine.SameChip(p[i], p[i+4]) {
			t.Errorf("bipartition split pair (%d,%d) across chips", i, i+4)
		}
	}
	if _, err := rb.Map(comm.NewMatrix(4), machine); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRecursiveBipartitionMatchesEdmondsOnChain(t *testing.T) {
	machine := topology.Harpertown()
	m := chainMatrix(8)
	pRB, err := RecursiveBipartition{}.Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	pEd, err := NewEdmonds().Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	if Cost(m, machine, pRB) != Cost(m, machine, pEd) {
		t.Errorf("chain: bipartition cost %d vs edmonds %d",
			Cost(m, machine, pRB), Cost(m, machine, pEd))
	}
}

func TestKLSplitUsedForLargeInputs(t *testing.T) {
	// 32 threads force the KL path (exact split caps at 16).
	machine := topology.Build("m32", topology.Spec{
		Chips: 2, L2PerChip: 4, CoresPerL2: 4,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
	m := chainMatrix(32)
	p, err := RecursiveBipartition{}.Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 32)
	rng := rand.New(rand.NewSource(1))
	if Cost(m, machine, p) > Cost(m, machine, rng.Perm(32)) {
		t.Error("KL bipartition worse than random on a chain")
	}
}

func TestEdmondsScalesTo32Cores(t *testing.T) {
	machine := topology.Build("m32", topology.Spec{
		Chips: 2, L2PerChip: 4, CoresPerL2: 4,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
	m := chainMatrix(32)
	p, err := NewEdmonds().Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, 32)
	// All chain neighbours that can share an L2 should: a chain of 32 on
	// 8 L2 domains of 4 cores keeps at least 24 of the 31 links inside a
	// domain in the optimum; require the mapper to do clearly better
	// than random.
	rng := rand.New(rand.NewSource(2))
	worst := uint64(0)
	for i := 0; i < 5; i++ {
		if c := Cost(m, machine, rng.Perm(32)); c > worst {
			worst = c
		}
	}
	if Cost(m, machine, p) >= worst/2 {
		t.Errorf("edmonds cost %d not clearly better than random %d", Cost(m, machine, p), worst)
	}
}
