package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// propertyMachines are the topologies the permutation property must hold
// on: every built-in preset plus irregular custom shapes (odd L2-domain
// counts, single-chip, deep NUMA) that the presets never produce.
func propertyMachines() []*topology.Machine {
	return []*topology.Machine{
		topology.Harpertown(),
		topology.NUMA(1),
		topology.NUMA(2),
		topology.NUMA(4),
		topology.Build("tiny-1c", topology.Spec{
			Chips: 1, L2PerChip: 1, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 120,
		}),
		topology.Build("quad-4c", topology.Spec{
			Chips: 1, L2PerChip: 2, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 120,
		}),
		topology.Build("big-16c", topology.Spec{
			Chips: 2, L2PerChip: 4, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 120,
		}),
		topology.Build("numa-deep", topology.Spec{
			NUMANodes: 2, Chips: 2, L2PerChip: 2, CoresPerL2: 2,
			L2Latency: 8, ChipLatency: 40, BusLatency: 90, NUMALatency: 240,
		}),
		// The manycore generators: a five-deep 64-core NUMA hierarchy and
		// a wide UMA multi-socket part.
		topology.Manycore(64),
		topology.MultiSocket(4, 2, 2),
	}
}

// randomMatrix draws a communication matrix of one of several shapes:
// empty, uniform noise, clustered pairs, and a single dominant pair —
// the degenerate inputs mappers historically mishandle.
func randomMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	switch rng.Intn(4) {
	case 0:
		// Empty: no communication at all.
	case 1:
		// Uniform noise.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				m.Add(i, j, uint64(rng.Intn(100)))
			}
		}
	case 2:
		// Clustered pairs (the paper's NPB-style pattern) plus noise.
		for i := 0; i+1 < n; i += 2 {
			m.Add(i, i+1, 1000+uint64(rng.Intn(500)))
		}
		for k := 0; k < n; k++ {
			m.Add(rng.Intn(n), rng.Intn(n), uint64(rng.Intn(10)))
		}
	case 3:
		// One dominant pair drowning everything else out.
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		m.Add(a, b, 1_000_000)
	}
	return m
}

// TestMappersProducePermutations is the satellite property test: every
// mapping algorithm, fed randomized matrices of every shape on every
// topology, must return a valid thread -> core permutation.
func TestMappersProducePermutations(t *testing.T) {
	const draws = 25
	for _, machine := range propertyMachines() {
		n := machine.NumCores()
		algos := []Algorithm{
			NewEdmonds(),
			NewGreedyMatch(),
			NewMultilevel(),
			NewAuto(),
			Identity{},
			NewOSScheduler(42),
			RecursiveBipartition{},
		}
		// Exhaustive search is factorial; keep it to the small machines.
		if n <= 8 {
			algos = append(algos, Exhaustive{})
		}
		for _, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", machine.Name, algo.Name()), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(n) * 7919))
				for d := 0; d < draws; d++ {
					m := randomMatrix(rng, n)
					placement, err := algo.Map(m, machine)
					if err != nil {
						t.Fatalf("draw %d: %v", d, err)
					}
					checkPermutation(t, placement, n)
				}
			})
		}
	}
}

// TestMappersRejectSizeMismatch: a matrix with the wrong thread count
// must be refused, not silently truncated into a partial placement.
func TestMappersRejectSizeMismatch(t *testing.T) {
	machine := topology.Harpertown()
	for _, algo := range []Algorithm{
		NewEdmonds(), NewGreedyMatch(), NewMultilevel(), NewAuto(),
		Identity{}, NewOSScheduler(1), RecursiveBipartition{}, Exhaustive{},
	} {
		if _, err := algo.Map(comm.NewMatrix(machine.NumCores()-1), machine); err == nil {
			t.Errorf("%s accepted a %d-thread matrix on an %d-core machine",
				algo.Name(), machine.NumCores()-1, machine.NumCores())
		}
	}
}

// TestHierarchicalMappersRejectNonPowerOfTwo: the pairing-based mappers
// document a power-of-two thread requirement; a 6-core machine must be
// refused with a clear error, while the unconstrained algorithms still
// return valid permutations on it.
func TestHierarchicalMappersRejectNonPowerOfTwo(t *testing.T) {
	machine := topology.Build("wide-6c", topology.Spec{
		Chips: 3, L2PerChip: 1, CoresPerL2: 2,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
	n := machine.NumCores()
	m := randomMatrix(rand.New(rand.NewSource(6)), n)
	for _, algo := range []Algorithm{NewEdmonds(), NewGreedyMatch(), NewMultilevel(), RecursiveBipartition{}} {
		if _, err := algo.Map(m, machine); err == nil {
			t.Errorf("%s accepted a %d-thread matrix", algo.Name(), n)
		}
	}
	for _, algo := range []Algorithm{Identity{}, NewOSScheduler(3), Exhaustive{}} {
		placement, err := algo.Map(m, machine)
		if err != nil {
			t.Errorf("%s on %d cores: %v", algo.Name(), n, err)
			continue
		}
		checkPermutation(t, placement, n)
	}
}

// fuzzMachines returns the two machine shapes (UMA, NUMA) used by
// FuzzMultilevelVsBlossom for a given power-of-two thread count.
func fuzzMachines(n int) [2]*topology.Machine {
	switch n {
	case 4:
		return [2]*topology.Machine{
			topology.Build("f-4u", topology.Spec{
				Chips: 1, L2PerChip: 2, CoresPerL2: 2,
				L2Latency: 8, ChipLatency: 40, BusLatency: 120,
			}),
			topology.Build("f-4n", topology.Spec{
				NUMANodes: 2, Chips: 1, L2PerChip: 1, CoresPerL2: 2,
				L2Latency: 8, ChipLatency: 40, BusLatency: 90, NUMALatency: 240,
			}),
		}
	case 8:
		return [2]*topology.Machine{topology.Harpertown(), topology.NUMA(2)}
	case 16:
		return [2]*topology.Machine{
			topology.Build("f-16u", topology.Spec{
				Chips: 2, L2PerChip: 4, CoresPerL2: 2,
				L2Latency: 8, ChipLatency: 40, BusLatency: 120,
			}),
			topology.Build("f-16n", topology.Spec{
				NUMANodes: 2, Chips: 2, L2PerChip: 2, CoresPerL2: 2,
				L2Latency: 8, ChipLatency: 40, BusLatency: 90, NUMALatency: 240,
			}),
		}
	default: // 32
		return [2]*topology.Machine{
			topology.Build("f-32u", topology.Spec{
				Chips: 4, L2PerChip: 4, CoresPerL2: 2,
				L2Latency: 8, ChipLatency: 40, BusLatency: 120,
			}),
			topology.Build("f-32n", topology.Spec{
				NUMANodes: 2, Chips: 2, L2PerChip: 2, CoresPerL2: 4,
				L2Latency: 8, ChipLatency: 40, BusLatency: 90, NUMALatency: 240,
			}),
		}
	}
}

// FuzzMultilevelVsBlossom is the mapper-quality fuzz oracle: arbitrary
// bytes decode to (thread count ≤ 32, machine shape, weight matrix); the
// multilevel mapper must always return a valid permutation and its cost
// must stay within the calibrated bound of the paper's blossom hierarchy
// (multilevelQualityOK). The first byte picks the size among {4,8,16,32},
// the second picks UMA or NUMA, the rest fill the upper triangle two
// bytes per weight (missing bytes read as zero).
func FuzzMultilevelVsBlossom(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add([]byte{1, 1, 0xff, 0xff})
	f.Add([]byte{2, 0})                      // 16 threads, all-zero weights
	f.Add([]byte{3, 1, 9, 9, 9, 9, 9, 9})    // 32 threads NUMA, partial triangle
	f.Add([]byte{2, 1, 0, 1, 0, 1, 0, 1})    // light uniform
	f.Add([]byte{3, 0, 0xff, 0, 0, 0, 0xff}) // heavy scattered pairs
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 4 << (int(data[0]) % 4)
		machine := fuzzMachines(n)[int(data[1])%2]
		data = data[2:]
		m := comm.NewMatrix(n)
		k := 0
		for i := 0; i < n && k < len(data); i++ {
			for j := i + 1; j < n && k < len(data); j++ {
				var v uint64
				if k < len(data) {
					v = uint64(data[k])
				}
				if k+1 < len(data) {
					v = v<<8 | uint64(data[k+1])
				}
				k += 2
				m.Set(i, j, v)
			}
		}

		pm, err := NewMultilevel().Map(m, machine)
		if err != nil {
			t.Fatalf("multilevel: %v", err)
		}
		checkPermutation(t, pm, n)
		pb, err := NewEdmonds().Map(m, machine)
		if err != nil {
			t.Fatalf("edmonds: %v", err)
		}
		checkPermutation(t, pb, n)
		mlCost := Cost(m, machine, pm)
		blCost := Cost(m, machine, pb)
		if !multilevelQualityOK(m, machine, mlCost, blCost) {
			t.Fatalf("n=%d %s: multilevel cost %d vs blossom %d exceeds the quality bound (total %d)",
				n, machine.Name, mlCost, blCost, m.Total())
		}
	})
}

// TestOnlineMapperMaintainsPermutation drives the dynamic controller
// through randomized epochs — including phase changes and idle epochs —
// and checks the placement in force is a permutation after every
// decision.
func TestOnlineMapperMaintainsPermutation(t *testing.T) {
	for _, machine := range propertyMachines() {
		n := machine.NumCores()
		t.Run(machine.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(n) * 104729))
			om := NewOnlineMapper(machine, 0)
			om.minGain = 1 // remap eagerly: stress the migration path
			checkPermutation(t, om.Placement(), n)
			for epoch := 0; epoch < 40; epoch++ {
				dec, err := om.Observe(randomMatrix(rng, n))
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				checkPermutation(t, dec.Placement, n)
				checkPermutation(t, om.Placement(), n)
			}
		})
	}
}

// Identity places thread i on core i — what a pinned run without any
// communication awareness does.
type Identity struct{}

// Name implements Algorithm.
func (Identity) Name() string { return "identity" }

// Map implements Algorithm.
func (Identity) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	if m.N() != machine.NumCores() {
		return nil, fmt.Errorf("mapping: %d threads for %d cores", m.N(), machine.NumCores())
	}
	p := make([]int, m.N())
	for i := range p {
		p[i] = i
	}
	return p, nil
}

// Name implements Algorithm, so that the property tests run the OS
// baseline beside the mappers.
func (o *OSScheduler) Name() string { return "os" }
