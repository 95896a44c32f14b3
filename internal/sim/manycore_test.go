package sim

import (
	"fmt"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/metrics"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// oddMachine builds a machine with a deliberately non-round core count —
// one core per L2 so any word-boundary or divisibility assumption in the
// engine, the presence index or the detectors trips immediately.
func oddMachine(cores int) *topology.Machine {
	return topology.Build(fmt.Sprintf("odd-%dc", cores), topology.Spec{
		Chips: cores, L2PerChip: 1, CoresPerL2: 1,
		L2Latency: 8, ChipLatency: 40, BusLatency: 120,
	})
}

// oddWorkload: every thread sweeps a shared array so TLBs overlap across
// all cores, exercising presence-index words past the first.
func oddWorkload(n int) (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 1<<13)
	team := trace.SPMD(n, func(th *trace.Thread) {
		for it := 0; it < 3; it++ {
			for i := 0; i < 96; i++ {
				arr.Add(th, (th.ID()*64+i*13)%arr.Len(), 1)
				th.Compute(2)
			}
			th.Barrier()
		}
	}, 0)
	return as, team
}

// TestEngineAtNonPowerOfTwoCoreCounts is the latent-assumption hunt: core
// counts of 65 and 130 cross the 64-thread bitset word boundary without
// being powers of two or multiples of 32. Both detectors must run, detect
// communication, and produce symmetric zero-diagonal matrices of the full
// size.
func TestEngineAtNonPowerOfTwoCoreCounts(t *testing.T) {
	for _, n := range []int{65, 130} {
		for _, mech := range []string{"SM", "HM"} {
			t.Run(fmt.Sprintf("%d/%s", n, mech), func(t *testing.T) {
				t.Parallel()
				machine := oddMachine(n)
				if machine.NumCores() != n {
					t.Fatalf("machine has %d cores, want %d", machine.NumCores(), n)
				}
				as, team := oddWorkload(n)
				cfg := Config{Machine: machine}
				var det comm.Detector
				if mech == "SM" {
					det = comm.NewSMDetector(n, 2)
					cfg.TLBMode = tlb.SoftwareManaged
				} else {
					det = comm.NewHMDetector(n, 50_000)
				}
				cfg.Detector = det
				res, err := Run(cfg, as, team)
				if err != nil {
					t.Fatal(err)
				}
				if res.Accesses == 0 {
					t.Fatal("no accesses simulated")
				}
				if res.Counters.Get(metrics.DetectionSearches) == 0 {
					t.Fatalf("%s run at %d cores performed no searches", mech, n)
				}
				m := res.Matrix
				if m == nil || m.N() != n {
					t.Fatalf("matrix missing or mis-sized")
				}
				if m.Total() == 0 {
					t.Fatalf("%s at %d cores detected no communication on a shared sweep", mech, n)
				}
				for i := 0; i < n; i++ {
					if m.At(i, i) != 0 {
						t.Fatalf("non-zero diagonal at %d", i)
					}
					for j := i + 1; j < n; j++ {
						if m.At(i, j) != m.At(j, i) {
							t.Fatalf("asymmetric matrix at (%d,%d)", i, j)
						}
					}
				}
				// Thread 64 (resp. 129) lives past the first 64-bit word of
				// any presence bitset; it must still be seen communicating.
				var last uint64
				for j := 0; j < n; j++ {
					last += m.At(n-1, j)
				}
				if last == 0 {
					t.Fatalf("thread %d (past the bitset word boundary) detected no communication", n-1)
				}
			})
		}
	}
}
