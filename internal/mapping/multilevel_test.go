package mapping

import (
	"math/rand"
	"testing"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// quality machines for the multilevel-vs-blossom comparison: every
// power-of-two size from 4 to 32, UMA and NUMA.
func qualityMachines() []*topology.Machine {
	return []*topology.Machine{
		topology.Build("q-4c", topology.Spec{
			Chips: 1, L2PerChip: 2, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 120,
		}),
		topology.Harpertown(),
		topology.Build("q-16c", topology.Spec{
			Chips: 2, L2PerChip: 4, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 120,
		}),
		topology.NUMA(2),
		topology.NUMA(4),
		topology.Build("q-32c", topology.Spec{
			NUMANodes: 2, Chips: 2, L2PerChip: 2, CoresPerL2: 4,
			L2Latency: 8, ChipLatency: 40, BusLatency: 90, NUMALatency: 240,
		}),
	}
}

// multilevelQualityOK is the shared quality oracle of the randomized test
// below and FuzzMultilevelVsBlossom: the multilevel cost must stay within
// a bounded factor of the blossom hierarchy's, with an additive slack of
// Total * L2-latency absorbing noise-scale differences on near-zero-cost
// instances. The factor is calibrated by TestMultilevelQualityVsBlossom,
// which logs the worst observed ratio across thousands of draws.
const multilevelQualityFactor = 2

func multilevelQualityOK(m *comm.Matrix, machine *topology.Machine, mlCost, blCost uint64) bool {
	slack := m.Total() * machine.Latency(0, 1) // cores 0 and 1 share an L2
	return mlCost <= multilevelQualityFactor*blCost+slack
}

// TestMultilevelQualityVsBlossom draws randomized matrices of every shape
// on machines up to 32 cores and checks the multilevel mapper's cost
// against the paper's blossom hierarchy, logging the worst ratio seen.
func TestMultilevelQualityVsBlossom(t *testing.T) {
	const draws = 200
	ml, bl := NewMultilevel(), NewEdmonds()
	worst := 0.0
	for _, machine := range qualityMachines() {
		n := machine.NumCores()
		rng := rand.New(rand.NewSource(int64(n) * 2654435761))
		for d := 0; d < draws; d++ {
			m := randomMatrix(rng, n)
			pm, err := ml.Map(m, machine)
			if err != nil {
				t.Fatalf("%s draw %d: multilevel: %v", machine.Name, d, err)
			}
			checkPermutation(t, pm, n)
			pb, err := bl.Map(m, machine)
			if err != nil {
				t.Fatalf("%s draw %d: edmonds: %v", machine.Name, d, err)
			}
			mlCost := Cost(m, machine, pm)
			blCost := Cost(m, machine, pb)
			if !multilevelQualityOK(m, machine, mlCost, blCost) {
				t.Fatalf("%s draw %d: multilevel cost %d vs blossom %d exceeds the quality bound",
					machine.Name, d, mlCost, blCost)
			}
			if blCost > 0 {
				if r := float64(mlCost) / float64(blCost); r > worst {
					worst = r
				}
			}
		}
	}
	t.Logf("worst multilevel/blossom cost ratio: %.3f", worst)
}

// TestMultilevelDeterministic: equal matrices must yield identical
// placements — golden files and corpora depend on it.
func TestMultilevelDeterministic(t *testing.T) {
	machine := topology.Manycore(64)
	n := machine.NumCores()
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, n)
	ml := NewMultilevel()
	first, err := ml.Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := ml.Map(m.Clone(), machine)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("rep %d: placement diverged at thread %d: %d vs %d", rep, i, first[i], again[i])
			}
		}
	}
}

// TestMultilevelImprovesOnIdentity: on a clustered matrix whose heavy
// pairs are placed far apart by the identity, the multilevel mapper must
// find a strictly cheaper placement.
func TestMultilevelImprovesOnIdentity(t *testing.T) {
	machine := topology.Manycore(64)
	n := machine.NumCores()
	m := comm.NewMatrix(n)
	// Heavy pairs straddling the machine: thread i talks to thread n-1-i.
	for i := 0; i < n/2; i++ {
		m.Add(i, n-1-i, 10_000)
	}
	p, err := NewMultilevel().Map(m, machine)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, n)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	mlCost, idCost := Cost(m, machine, p), Cost(m, machine, identity)
	if mlCost >= idCost {
		t.Fatalf("multilevel cost %d did not improve on identity %d", mlCost, idCost)
	}
	// Every heavy pair can share an L2: the optimal cost is reachable and
	// the mapper should land close to it.
	optimal := m.Total() * machine.Latency(0, 1) // the L2 latency
	if mlCost > 4*optimal {
		t.Fatalf("multilevel cost %d is far from the achievable %d", mlCost, optimal)
	}
}

// TestMultilevel1024CoresUnder5s is the scale acceptance criterion: a
// 1024-thread, 1024-core mapping on the multilevel path completes in
// under five seconds.
func TestMultilevel1024CoresUnder5s(t *testing.T) {
	machine := topology.Manycore(1024)
	n := machine.NumCores()
	rng := rand.New(rand.NewSource(1024))
	m := comm.NewMatrix(n)
	// A realistic sparse pattern — partner pairs, a ring and long-range
	// noise, ~16 partners per thread — scrambled by a random permutation
	// so the identity placement scatters every cluster across sockets.
	// The mapper's job is to recover the hidden locality.
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		m.Add(perm[i], perm[(i+1)%n], 5_000+uint64(rng.Intn(1000)))
		m.Add(perm[i], perm[i^1], 8_000+uint64(rng.Intn(1000)))
		for k := 0; k < 12; k++ {
			m.Add(perm[i], perm[rng.Intn(n)], uint64(rng.Intn(200)))
		}
	}
	// Assert on process CPU time, not wall clock: under `go test ./...`
	// the go tool compiles the remaining packages concurrently with this
	// binary, and on a single-core host that time-slicing inflates the
	// wall clock of a ~0.7s mapping past any reasonable bound. CPU time
	// charges only the work this process actually did. The mapper is
	// single-goroutine and this test is sequential, so the delta is ours.
	cpuStart := processCPU(t)
	start := time.Now()
	p, err := NewMultilevel().Map(m, machine)
	elapsed := time.Since(start)
	cpu := processCPU(t) - cpuStart
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, p, n)
	// The bound holds only for an uninstrumented build: the race detector
	// multiplies the map-heavy coarsening cost ~20x. Quality assertions
	// below still run either way.
	if !raceEnabled && cpu > 5*time.Second {
		t.Fatalf("1024-core multilevel mapping took %v CPU (%v wall), want < 5s", cpu, elapsed)
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	mlCost, idCost := Cost(m, machine, p), Cost(m, machine, identity)
	t.Logf("1024 cores: mapped in %v CPU (%v wall), cost %d vs identity %d (%.2fx)",
		cpu, elapsed, mlCost, idCost, float64(mlCost)/float64(idCost))
	// The scramble leaves ~7x on the table; recovering half of it is the
	// floor for calling this a mapper.
	if mlCost*2 >= idCost {
		t.Fatalf("multilevel recovered too little: cost %d vs identity %d", mlCost, idCost)
	}
}

// TestAutoDispatch: Auto must reproduce Edmonds bit-for-bit at or below
// the threshold and the multilevel mapper above it.
func TestAutoDispatch(t *testing.T) {
	auto := NewAuto()

	small := topology.Harpertown()
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, small.NumCores())
	pa, err := auto.Map(m, small)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewEdmonds().Map(m, small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pe[i] {
			t.Fatalf("auto diverged from edmonds at thread %d on %d cores", i, small.NumCores())
		}
	}

	big := topology.Manycore(256)
	mb := randomMatrix(rng, big.NumCores())
	pa, err = auto.Map(mb, big)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewMultilevel().Map(mb, big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pm[i] {
			t.Fatalf("auto diverged from multilevel at thread %d on %d cores", i, big.NumCores())
		}
	}
}
