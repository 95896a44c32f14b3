package splash_test

import (
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/sim"
	"tlbmap/internal/splash"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

func TestRegistry(t *testing.T) {
	names := splash.Names()
	want := []string{"BARNES", "LUC", "OCEAN", "RADIX", "WATER"}
	if len(names) != len(want) {
		t.Fatalf("registry = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("names[%d] = %s, want %s", i, names[i], n)
		}
	}
	if len(splash.All()) != 5 {
		t.Error("All incomplete")
	}
	if _, err := splash.Get("VOLREND"); err == nil {
		t.Error("unknown kernel accepted")
	}
	for _, b := range splash.All() {
		if b.Description == "" || b.Expected == "" {
			t.Errorf("%s metadata incomplete", b.Name)
		}
	}
}

func runClassS(t *testing.T, name string, seed int64) (*sim.Result, *comm.Matrix) {
	t.Helper()
	b, err := splash.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	as := vm.NewAddressSpace()
	programs := b.Build(as, splash.Params{Threads: 8, Class: splash.ClassS, Seed: seed})
	if len(programs) != 8 {
		t.Fatalf("%s built %d programs", name, len(programs))
	}
	det := comm.NewOracleDetector(8, comm.PageGranularity)
	res, err := sim.Run(sim.Config{Machine: topology.Harpertown(), Detector: det},
		as, trace.NewTeam(programs, 0))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, det.Matrix()
}

func TestAllKernelsRunAtClassS(t *testing.T) {
	for _, name := range splash.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, m := runClassS(t, name, 1)
			if res.Accesses == 0 || res.Cycles == 0 {
				t.Error("no work simulated")
			}
			if m.Total() == 0 {
				t.Error("no communication detected at all")
			}
		})
	}
}

func TestKernelsDeterministic(t *testing.T) {
	for _, name := range []string{"OCEAN", "RADIX"} {
		r1, _ := runClassS(t, name, 5)
		r2, _ := runClassS(t, name, 5)
		if r1.Accesses != r2.Accesses || r1.Cycles != r2.Cycles {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestOceanHasBlockStructure(t *testing.T) {
	_, m := runClassS(t, "OCEAN", 1)
	// At page granularity a grid row spans all four column blocks, so the
	// threads of one thread-row form a page-sharing clique; the two
	// cliques {0..3} and {4..7} touch only at the y-boundary rows. The
	// matrix must show: dense intra-clique communication, a thin but
	// non-zero inter-clique link.
	var intra, inter uint64
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if i/4 == j/4 {
				intra += m.At(i, j)
			} else {
				inter += m.At(i, j)
			}
		}
	}
	if inter == 0 {
		t.Fatalf("no cross-row communication in OCEAN:\n%s", m)
	}
	if intra < 10*inter {
		t.Errorf("intra-clique %d should dominate inter-clique %d", intra, inter)
	}
	// The y-boundary couples the clique edges: at least one distance-4
	// pair communicates.
	var rowPairs uint64
	for c := 0; c < 4; c++ {
		rowPairs += m.At(c, c+4)
	}
	if rowPairs == 0 {
		t.Error("distance-4 boundary pairs silent")
	}
}

func TestWaterIsHomogeneous(t *testing.T) {
	_, m := runClassS(t, "WATER", 1)
	if nf := m.NeighborFraction(); nf > 0.5 {
		t.Errorf("WATER neighbour fraction = %.2f; expected homogeneous", nf)
	}
}

func TestRadixIsHomogeneous(t *testing.T) {
	_, m := runClassS(t, "RADIX", 1)
	if nf := m.NeighborFraction(); nf > 0.55 {
		t.Errorf("RADIX neighbour fraction = %.2f; expected scatter", nf)
	}
}

func TestLUCHubRotates(t *testing.T) {
	// Cut LUC's run into epochs the way dynamic migration does: every
	// migration poll takes the delta of the detector's matrix since the
	// previous poll and moves no thread. Early epochs should not have the
	// same dominant communicator as late epochs (the hub moves).
	b, err := splash.Get("LUC")
	if err != nil {
		t.Fatal(err)
	}
	as := vm.NewAddressSpace()
	programs := b.Build(as, splash.Params{Threads: 8, Class: splash.ClassS, Seed: 1})
	det := comm.NewOracleDetector(8, comm.PageGranularity)
	var prev *comm.Matrix
	var epochs []*comm.Matrix
	cut := func(uint64, []int) []int {
		cur := det.Matrix()
		epochs = append(epochs, cur.Sub(prev))
		prev = cur.Clone()
		return nil
	}
	_, err = sim.Run(sim.Config{Machine: topology.Harpertown(), Detector: det, Migrator: cut, MigrationInterval: 50_000},
		as, trace.NewTeam(programs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs at class S", len(epochs))
	}
	first, last := epochs[0], epochs[len(epochs)-1]
	if first.Total() == 0 || last.Total() == 0 {
		t.Fatalf("empty first or last epoch (totals %d, %d)", first.Total(), last.Total())
	}
	if sim := first.Similarity(last); sim > 0.95 {
		t.Errorf("first and last epochs nearly identical (%.3f); hub should rotate", sim)
	}
}

func TestThreadCountVariants(t *testing.T) {
	b, _ := splash.Get("WATER")
	as := vm.NewAddressSpace()
	programs := b.Build(as, splash.Params{Threads: 4, Class: splash.ClassS})
	if len(programs) != 4 {
		t.Fatalf("built %d programs", len(programs))
	}
	machine := topology.Build("t4", topology.Spec{
		Chips: 1, L2PerChip: 2, CoresPerL2: 2,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
	if _, err := sim.Run(sim.Config{Machine: machine}, as, trace.NewTeam(programs, 0)); err != nil {
		t.Fatal(err)
	}
}
