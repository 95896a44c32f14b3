package sim

import (
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// TestSteadyStateZeroAllocs asserts the zero-alloc invariant of the
// disarmed hot loop (NullDetector, no checker/perturber/migrator): once the
// working set is warm, simulating an event must not allocate. The test
// measures two runs that differ only in iteration count over the same
// working set; the allocation difference divided by the extra events is the
// steady-state per-event cost, which must be ~0 (a tiny epsilon absorbs
// runtime-internal noise like goroutine stack growth).
func TestSteadyStateZeroAllocs(t *testing.T) {
	build := func(iters int) func() {
		return func() {
			as := vm.NewAddressSpace()
			arr := trace.NewF64(as, 4096)
			team := trace.SPMD(8, func(th *trace.Thread) {
				for it := 0; it < iters; it++ {
					for i := 0; i < 256; i++ {
						arr.Add(th, (th.ID()*512+i*7)%4096, 1)
						th.Compute(3)
					}
				}
			}, 0)
			if _, err := Run(Config{Machine: topology.Harpertown()}, as, team); err != nil {
				panic(err)
			}
		}
	}
	const shortIters, longIters = 2, 12
	shortAllocs := testing.AllocsPerRun(5, build(shortIters))
	longAllocs := testing.AllocsPerRun(5, build(longIters))
	// Each iteration is 256 Adds (a load + a store each) and 256 Computes
	// per thread.
	extraEvents := float64((longIters - shortIters) * 8 * 256 * 3)
	perEvent := (longAllocs - shortAllocs) / extraEvents
	if perEvent > 0.01 {
		t.Errorf("steady-state loop allocates: %.4f allocs/event (short run %.0f, long run %.0f)",
			perEvent, shortAllocs, longAllocs)
	}
}

// benchWorkload builds the benchmark team: an 8-thread strided sweep with
// enough pages to keep the TLBs missing and enough reuse to keep the caches
// busy. Rebuilt per iteration because traces are consumed.
func benchWorkload() (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 1<<15) // 256 KiB: 64 pages
	team := trace.SPMD(8, func(th *trace.Thread) {
		for it := 0; it < 20; it++ {
			for i := 0; i < 512; i++ {
				arr.Add(th, (th.ID()*4096+i*613)%arr.Len(), 1)
				th.Compute(2)
			}
			th.Barrier()
		}
	}, 0)
	return as, team
}

// BenchmarkEngine measures whole-run engine throughput per detector mode
// and reports an events/sec custom metric (accesses plus compute events).
// scripts/bench.sh records these numbers in BENCH_engine.json.
func BenchmarkEngine(b *testing.B) {
	bench := func(b *testing.B, mkcfg func() Config) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			as, team := benchWorkload()
			res, err := Run(mkcfg(), as, team)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Accesses + res.Accesses/2 // one Compute per two accesses
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
	b.Run("null", func(b *testing.B) {
		bench(b, func() Config { return Config{Machine: topology.Harpertown()} })
	})
	b.Run("SM", func(b *testing.B) {
		bench(b, func() Config {
			return Config{
				Machine:  topology.Harpertown(),
				TLBMode:  tlb.SoftwareManaged,
				Detector: comm.NewSMDetector(8, 1),
			}
		})
	})
	b.Run("HM", func(b *testing.B) {
		bench(b, func() Config {
			return Config{
				Machine:  topology.Harpertown(),
				Detector: comm.NewHMDetector(8, 50_000),
			}
		})
	})
	b.Run("oracle", func(b *testing.B) {
		bench(b, func() Config {
			return Config{
				Machine:  topology.Harpertown(),
				Detector: comm.NewOracleDetector(8, comm.PageGranularity),
			}
		})
	})
}
