package sim

import (
	"fmt"
	"reflect"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/runner"
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

// oddSpace builds oddWorkload's address space and shared array without a
// team. The allocation sequence is fixed, so every call maps the same
// pages to the same frames and a trace compiled from any oddWorkload team
// replays against it.
func oddSpace() (*vm.AddressSpace, *trace.F64) {
	as := vm.NewAddressSpace()
	return as, trace.NewF64(as, 1<<13)
}

// oddWorkload: every thread sweeps a shared array so TLBs overlap across
// all cores, exercising presence-index words past the first.
func oddWorkload(n int) (*vm.AddressSpace, *trace.Team) {
	as, arr := oddSpace()
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
				if det.Searches() == 0 {
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

// TestShardWorkerInvarianceManycore is the 256-core cell of the
// compiled-vs-goroutine equivalence: a hierarchical manycore machine under
// the HM detector, where the scheduler runs its heap representation. The
// compiled replay must reproduce the goroutine engine's Result exactly.
//
// The harness compiles a kernel once and replays it from every job of a
// worker pool. Each subtest shares the compiled trace between 2, 7 or 16
// pool workers, each walking its own cursor over the 256 threads in a
// different rotation; every cursor must serve exactly the batches of a
// lone serial cursor, so every concurrent replay feeds the engine the
// stream whose Result is checked here.
func TestShardWorkerInvarianceManycore(t *testing.T) {
	const n = 256
	_, team := oddWorkload(n)
	compiled := trace.Compile(team)
	if raceEnabled {
		// Minutes under the race detector's ~15-20x slowdown; the
		// compiled path runs under -race in internal/check's
		// TestShardedCompiledMatchSerial. The cursor subtests stay cheap
		// and run.
		t.Log("256-core engine runs skipped under -race")
	} else {
		machine := topology.Manycore(n)
		config := func() Config {
			return Config{
				Machine:  machine,
				Detector: comm.NewHMDetector(n, 50_000),
				TLB:      tlb.Config{Entries: 32, Ways: 4},
			}
		}
		as, team := oddWorkload(n)
		base, err := Run(config(), as, team)
		if err != nil {
			t.Fatalf("goroutine engine: %v", err)
		}
		as, _ = oddSpace()
		res, err := RunSource(config(), as, compiled.NewSource())
		if err != nil {
			t.Fatalf("compiled replay: %v", err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatal("compiled Result diverged from the goroutine engine")
		}
	}

	ref := make([][]trace.Batch, n)
	lone := compiled.NewSource()
	for i := range ref {
		for b := lone.Start(i); ; b = lone.Resume(i) {
			ref[i] = append(ref[i], b)
			if b.Done {
				break
			}
		}
	}
	for _, workers := range []int{2, 7, 16} {
		t.Run(fmt.Sprintf("workers-%d-compiled-true", workers), func(t *testing.T) {
			err := runner.Run(runner.Pool{Workers: workers}, workers, func(j int) error {
				return replayRotated(compiled.NewSource(), ref, j*n/workers)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// replayRotated drains src one batch per thread per round, visiting the
// threads in rotation from first, and reports the first batch that
// differs from ref.
func replayRotated(src trace.Source, ref [][]trace.Batch, first int) error {
	n := src.NumThreads()
	served := make([]int, n)
	for left := n; left > 0; {
		for k := 0; k < n; k++ {
			i := (first + k) % n
			if served[i] == len(ref[i]) {
				continue
			}
			var b trace.Batch
			if served[i] == 0 {
				b = src.Start(i)
			} else {
				b = src.Resume(i)
			}
			if !reflect.DeepEqual(b, ref[i][served[i]]) {
				return fmt.Errorf("cursor from thread %d: thread %d batch %d differs from a lone cursor",
					first, i, served[i])
			}
			served[i]++
			if served[i] == len(ref[i]) {
				left--
			}
		}
	}
	return nil
}
