// Repository-level benchmarks: one per table and figure of the paper's
// evaluation section, plus the ablation benches called out in DESIGN.md.
// Table I's scaling benches time the literal detection routines, which
// are test oracles in internal/comm, so they live there:
//
//	go test -bench=Table1 ./internal/comm
//
// The figure benches time the regeneration of that figure's data and attach
// the figure's values as custom benchmark metrics (ReportMetric), so
//
//	go test -bench=Fig6 -benchmem
//
// both exercises the code path and prints the normalized results. Pattern
// and performance benches run at class W (the paper's evaluation scale) and
// simulate millions of memory accesses per iteration; expect seconds per
// bench.
package tlbmap_test

import (
	"fmt"
	"testing"

	"tlbmap/internal/core"
	"tlbmap/internal/datamap"
	"tlbmap/internal/harness"
	"tlbmap/internal/mapping"
	"tlbmap/internal/metrics"
	"tlbmap/internal/npb"
	"tlbmap/internal/splash"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// benchApps is the subset used by the per-figure benches; the full nine run
// in cmd/experiments. SP/LU/MG cover the structured patterns, CG the
// homogeneous one.
var benchApps = []string{"SP", "LU", "MG", "CG"}

func workloadW(b *testing.B, name string) core.Workload {
	b.Helper()
	w, err := core.NPBWorkload(name, npb.Params{Class: npb.ClassW})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// ---------------------------------------------------------------------------
// Table II: the cache hierarchy in its paper configuration — cost of the
// simulated access paths (L1 hit, L2 hit, memory fill, cache-to-cache).

func BenchmarkTable2MemoryHierarchy(b *testing.B) {
	w := workloadW(b, "SP")
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(w, nil, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: communication-pattern detection.

func benchDetection(b *testing.B, mech core.Mechanism) {
	for _, name := range benchApps {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloadW(b, name)
			var sim float64
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(w, mech, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				oracle, err := core.Detect(w, core.Oracle, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = det.Matrix.Similarity(oracle.Matrix)
			}
			b.ReportMetric(sim, "similarity")
		})
	}
}

// BenchmarkFig4SMDetection regenerates the SM communication matrices and
// reports their similarity to the full-trace oracle.
func BenchmarkFig4SMDetection(b *testing.B) { benchDetection(b, core.SM) }

// BenchmarkFig5HMDetection regenerates the HM communication matrices and
// reports their similarity to the full-trace oracle.
func BenchmarkFig5HMDetection(b *testing.B) { benchDetection(b, core.HM) }

// ---------------------------------------------------------------------------
// Figures 6-9: performance under the SM mapping, normalized to the OS
// scheduler.

func benchFigure(b *testing.B, metric string, event metrics.Event) {
	machine := topology.Harpertown()
	for _, name := range benchApps {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloadW(b, name)
			var ratio float64
			for i := 0; i < b.N; i++ {
				sm, err := core.Detect(w, core.SM, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				place, err := core.BuildMapping(sm.Matrix, machine)
				if err != nil {
					b.Fatal(err)
				}
				mapped, err := core.Evaluate(w, place, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				osSched := mapping.NewOSScheduler(11)
				var base float64
				const reps = 3
				for r := 0; r < reps; r++ {
					p, err := osSched.Map(sm.Matrix, machine)
					if err != nil {
						b.Fatal(err)
					}
					res, err := core.Evaluate(w, p, core.Options{JitterSeed: int64(r + 1)})
					if err != nil {
						b.Fatal(err)
					}
					if metric == "time" {
						base += float64(res.Cycles) / reps
					} else {
						base += float64(res.Counters.Get(event)) / reps
					}
				}
				if metric == "time" {
					ratio = float64(mapped.Cycles) / base
				} else {
					ratio = float64(mapped.Counters.Get(event)) / base
				}
			}
			b.ReportMetric(ratio, "normalized_"+metric)
		})
	}
}

// BenchmarkFig6ExecutionTime regenerates the normalized execution times.
func BenchmarkFig6ExecutionTime(b *testing.B) { benchFigure(b, "time", 0) }

// BenchmarkFig7Invalidations regenerates the normalized invalidation counts.
func BenchmarkFig7Invalidations(b *testing.B) { benchFigure(b, "inv", metrics.Invalidations) }

// BenchmarkFig8Snoops regenerates the normalized snoop-transaction counts.
func BenchmarkFig8Snoops(b *testing.B) { benchFigure(b, "snoop", metrics.SnoopTransactions) }

// BenchmarkFig9L2Misses regenerates the normalized L2 miss counts.
func BenchmarkFig9L2Misses(b *testing.B) { benchFigure(b, "l2miss", metrics.L2Misses) }

// ---------------------------------------------------------------------------
// Table III: SM statistics (miss rate, sampled fraction, overhead).

func BenchmarkTable3Overhead(b *testing.B) {
	for _, name := range []string{"SP", "IS", "EP"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloadW(b, name)
			var missRate, overhead float64
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(w, core.SM, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				missRate = det.Result.TLBMissRate
				overhead = det.Result.DetectionOverhead
			}
			b.ReportMetric(missRate*100, "missrate_%")
			b.ReportMetric(overhead*100, "overhead_%")
		})
	}
}

// ---------------------------------------------------------------------------
// Tables IV and V: absolute rates and run-to-run variance via the harness.

func BenchmarkTable4Rates(b *testing.B) {
	cfg := harness.Config{Class: npb.ClassW, Benchmarks: []string{"SP"}, Repetitions: 2}
	var rate float64
	for i := 0; i < b.N; i++ {
		results, err := harness.RunPerformance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rate = results[0].Stats[harness.SMLabel].InvPerSec.Mean()
	}
	b.ReportMetric(rate, "inv_per_sec")
}

func BenchmarkTable5Variance(b *testing.B) {
	cfg := harness.Config{Class: npb.ClassW, Benchmarks: []string{"SP"}, Repetitions: 4}
	var osSD, smSD float64
	for i := 0; i < b.N; i++ {
		results, err := harness.RunPerformance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		osSD = results[0].Stats[harness.OSLabel].Time.RelStdDev()
		smSD = results[0].Stats[harness.SMLabel].Time.RelStdDev()
	}
	b.ReportMetric(osSD, "os_time_sd_%")
	b.ReportMetric(smSD, "sm_time_sd_%")
}

// BenchmarkParallelSuite measures the parallel experiment engine: the same
// Table IV/V workload fanned out over 1, 2, 4 and 8 workers. The per-job
// seeding makes the output identical at every width, so the sub-benchmarks
// differ only in wall-clock time; compare their ns/op to read the scaling
// curve (flat on a single-core host, near-linear up to GOMAXPROCS
// otherwise).
func BenchmarkParallelSuite(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := harness.Config{
				Class:       npb.ClassS,
				Benchmarks:  benchApps,
				Repetitions: 4,
				Parallel:    workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunPerformance(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 5).

// BenchmarkAblationMappingAlgorithms compares the mapping cost achieved by
// Edmonds matching, greedy matching and recursive bipartitioning on the SP
// pattern.
func BenchmarkAblationMappingAlgorithms(b *testing.B) {
	machine := topology.Harpertown()
	w := workloadW(b, "SP")
	det, err := core.Detect(w, core.Oracle, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []mapping.Algorithm{
		mapping.NewEdmonds(),
		mapping.NewGreedyMatch(),
		mapping.RecursiveBipartition{},
	} {
		algo := algo
		b.Run(algo.Name(), func(b *testing.B) {
			var cost uint64
			for i := 0; i < b.N; i++ {
				place, err := algo.Map(det.Matrix, machine)
				if err != nil {
					b.Fatal(err)
				}
				cost = mapping.Cost(det.Matrix, machine, place)
			}
			b.ReportMetric(float64(cost), "mapping_cost")
		})
	}
}

// BenchmarkAblationSamplingRate sweeps the SM sampling period n: accuracy
// versus overhead (Section VI-C discusses the trade-off).
func BenchmarkAblationSamplingRate(b *testing.B) {
	w := workloadW(b, "SP")
	oracle, err := core.Detect(w, core.Oracle, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []uint64{1, 10, 100} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var sim, overhead float64
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(w, core.SM, core.Options{SampleEvery: n})
				if err != nil {
					b.Fatal(err)
				}
				sim = det.Matrix.Similarity(oracle.Matrix)
				overhead = det.Result.DetectionOverhead
			}
			b.ReportMetric(sim, "similarity")
			b.ReportMetric(overhead*100, "overhead_%")
		})
	}
}

// BenchmarkAblationScanInterval sweeps the HM scan interval.
func BenchmarkAblationScanInterval(b *testing.B) {
	w := workloadW(b, "SP")
	oracle, err := core.Detect(w, core.Oracle, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, interval := range []uint64{20_000, 100_000, 1_000_000} {
		interval := interval
		b.Run(fmt.Sprintf("every%d", interval), func(b *testing.B) {
			var sim, overhead float64
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(w, core.HM, core.Options{ScanInterval: interval})
				if err != nil {
					b.Fatal(err)
				}
				sim = det.Matrix.Similarity(oracle.Matrix)
				overhead = det.Result.DetectionOverhead
			}
			b.ReportMetric(sim, "similarity")
			b.ReportMetric(overhead*100, "overhead_%")
		})
	}
}

// BenchmarkAblationTLBGeometry sweeps the TLB size: detection accuracy as a
// function of TLB reach (Section VI-A fixes 64 entries / 4 ways).
func BenchmarkAblationTLBGeometry(b *testing.B) {
	w := workloadW(b, "SP")
	oracle, err := core.Detect(w, core.Oracle, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []tlb.Config{
		{Entries: 16, Ways: 4},
		{Entries: 64, Ways: 4},
		{Entries: 256, Ways: 4},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("entries%d", cfg.Entries), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(w, core.SM, core.Options{TLB: cfg})
				if err != nil {
					b.Fatal(err)
				}
				sim = det.Matrix.Similarity(oracle.Matrix)
			}
			b.ReportMetric(sim, "similarity")
		})
	}
}

// BenchmarkAblationOracleGranularity compares page- and line-granularity
// ground truth, quantifying page-level false sharing (Section III-B5).
func BenchmarkAblationOracleGranularity(b *testing.B) {
	for _, name := range []string{"SP", "IS"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloadW(b, name)
			var ratio float64
			for i := 0; i < b.N; i++ {
				page, err := core.Detect(w, core.Oracle, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				line, err := core.Detect(w, core.OracleLine, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if lt := line.Matrix.Total(); lt > 0 {
					ratio = float64(page.Matrix.Total()) / float64(lt)
				}
			}
			b.ReportMetric(ratio, "page_over_line")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot simulator paths.

func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workloadW(b, "MG")
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Evaluate(w, nil, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		accesses = res.Accesses
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// ---------------------------------------------------------------------------
// Extension benches: the SPLASH-2-style suite, NUMA data mapping, online
// remapping, and the Section II storage experiment.

// BenchmarkSplashDetection detects the SPLASH-suite patterns and reports
// similarity to the oracle (extension suite; see internal/splash).
func BenchmarkSplashDetection(b *testing.B) {
	for _, name := range []string{"OCEAN", "LUC", "WATER"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := core.SplashWorkload(name, splash.Params{Class: splash.ClassW})
			if err != nil {
				b.Fatal(err)
			}
			var sim float64
			for i := 0; i < b.N; i++ {
				sm, _, oracle, err := core.DetectAll(w, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = sm.Matrix.Similarity(oracle.Matrix)
			}
			b.ReportMetric(sim, "similarity")
		})
	}
}

// BenchmarkAblationDataMapping compares the NUMA data-mapping policies on
// SP over a two-node machine, reporting remote-fill counts.
func BenchmarkAblationDataMapping(b *testing.B) {
	machine := topology.NUMA(2)
	opt := core.Options{Machine: machine}
	w := workloadW(b, "SP")
	prof, err := core.ProfileData(w, opt)
	if err != nil {
		b.Fatal(err)
	}
	placement := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, policy := range []datamap.Policy{
		datamap.FirstTouch{}, datamap.MostAccessed{}, datamap.Interleave{},
	} {
		policy := policy
		b.Run(policy.Name(), func(b *testing.B) {
			var remote float64
			for i := 0; i < b.N; i++ {
				assign, err := datamap.Build(policy, prof.Profile, machine, placement)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.EvaluateNUMA(w, placement, assign, opt)
				if err != nil {
					b.Fatal(err)
				}
				remote = float64(res.Counters.Get(metrics.RemoteMemAccesses))
			}
			b.ReportMetric(remote, "remote_fills")
		})
	}
}

// BenchmarkOnlineRemapping drives the online controller over the rotating
// LUC hub epochs, reporting how many remaps it issues.
func BenchmarkOnlineRemapping(b *testing.B) {
	w, err := core.SplashWorkload("LUC", splash.Params{Class: splash.ClassW})
	if err != nil {
		b.Fatal(err)
	}
	var remaps float64
	for i := 0; i < b.N; i++ {
		det, err := core.Detect(w, core.Oracle, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Feed the whole-run matrix plus perturbed variants as epochs.
		o := mapping.NewOnlineMapper(topology.Harpertown(), 0.8)
		if _, err := o.Observe(det.Matrix); err != nil {
			b.Fatal(err)
		}
		remaps = float64(o.Remaps())
	}
	b.ReportMetric(remaps, "remaps")
}

// BenchmarkStorageCost measures the trace-recording path (Section II's
// storage argument) and reports bytes per access.
func BenchmarkStorageCost(b *testing.B) {
	w := workloadW(b, "MG")
	var perAccess float64
	for i := 0; i < b.N; i++ {
		records, bytes, err := core.MeasureTraceSize(w, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		perAccess = float64(bytes) / float64(records)
	}
	b.ReportMetric(perAccess, "bytes/access")
}

// BenchmarkDynamicMigration runs the full online pipeline (detect -> epoch
// deltas -> mid-run thread migration) on a phase-changing workload and
// reports the speedup over the static identity placement.
func BenchmarkDynamicMigration(b *testing.B) {
	twoPhase := func(as *vm.AddressSpace) []trace.Program {
		buffers := make([]*trace.F64, 8)
		for i := range buffers {
			buffers[i] = trace.NewF64(as, 4096)
		}
		programs := make([]trace.Program, 8)
		for i := range programs {
			programs[i] = func(t *trace.Thread) {
				id := t.ID()
				for r := 0; r < 60; r++ {
					partner := id ^ 1
					if r >= 30 {
						partner = (id + 4) % 8
					}
					for k := 0; k < 256; k++ {
						buffers[id].Set(t, k, float64(r+k))
					}
					t.Barrier()
					var sum float64
					for k := 0; k < 256; k++ {
						sum += buffers[partner].Get(t, k)
					}
					_ = sum
					t.Barrier()
				}
			}
		}
		return programs
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		static, err := core.Evaluate(twoPhase, nil, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := core.EvaluateWithDynamicMigration(twoPhase, core.Oracle,
			core.Options{MigrationInterval: 200_000})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(static.Cycles) / float64(dyn.Result.Cycles)
	}
	b.ReportMetric(speedup, "speedup_x")
}
