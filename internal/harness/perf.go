package harness

import (
	"fmt"

	"tlbmap/internal/comm"
	"tlbmap/internal/core"
	"tlbmap/internal/mapping"
	"tlbmap/internal/metrics"
	"tlbmap/internal/runner"
	"tlbmap/internal/stats"
)

// MappingLabel identifies one of the three placements the evaluation
// compares (the columns of Figures 6-9 and Tables IV/V).
type MappingLabel string

// The three placements of the evaluation.
const (
	OSLabel MappingLabel = "OS"
	SMLabel MappingLabel = "SM"
	HMLabel MappingLabel = "HM"
)

// MappingStats aggregates the repeated performance runs of one (benchmark,
// placement) pair.
type MappingStats struct {
	// Time is the execution time in simulated seconds.
	Time stats.Sample
	// InvPerSec, SnoopPerSec and L2MissPerSec are the event rates of
	// Table IV.
	InvPerSec    stats.Sample
	SnoopPerSec  stats.Sample
	L2MissPerSec stats.Sample
	// Raw event totals per run, for normalized figures.
	Inv    stats.Sample
	Snoop  stats.Sample
	L2Miss stats.Sample
}

// record folds one run's metrics into the aggregate. A zero-cycle run
// contributes to the totals but not to the per-second rates (the rate of a
// zero-length run is undefined, not infinite).
func (m *MappingStats) record(res core.RunMetrics) {
	secs := float64(res.Cycles) / ClockHz
	m.Time.Add(secs)
	m.Inv.AddUint(res.Invalidations)
	m.Snoop.AddUint(res.Snoops)
	m.L2Miss.AddUint(res.L2Misses)
	if secs > 0 {
		m.InvPerSec.Add(float64(res.Invalidations) / secs)
		m.SnoopPerSec.Add(float64(res.Snoops) / secs)
		m.L2MissPerSec.Add(float64(res.L2Misses) / secs)
	}
}

// PerfResult holds the full performance comparison for one benchmark.
type PerfResult struct {
	Name string
	// Stats per placement label.
	Stats map[MappingLabel]*MappingStats
	// PlacementSM/PlacementHM are the thread -> core mappings derived
	// from the SM and HM matrices.
	PlacementSM, PlacementHM []int
}

// Normalized returns metric(label)/metric(OS) using means — one cell of
// Figures 6-9. metric selects the sample: "time", "inv", "snoop", "l2miss".
func (p PerfResult) Normalized(label MappingLabel, metric string) float64 {
	base := p.Stats[OSLabel]
	s := p.Stats[label]
	pick := func(m *MappingStats) float64 {
		switch metric {
		case "time":
			return m.Time.Mean()
		case "inv":
			return m.Inv.Mean()
		case "snoop":
			return m.Snoop.Mean()
		case "l2miss":
			return m.L2Miss.Mean()
		default:
			return 0
		}
	}
	return stats.Normalize(pick(s), pick(base))
}

// perfPrep is the per-benchmark output of the detection phase: the
// PerfResult skeleton plus the SM matrix the OS-scheduler model draws its
// random placements against.
type perfPrep struct {
	name     string
	smMatrix *comm.Matrix
	result   PerfResult
}

// repMetrics is the payload of one (benchmark, repetition) job: the
// metrics of the three placements evaluated on the job's workload.
type repMetrics struct {
	os, sm, hm core.RunMetrics
}

// RunPerformance reproduces the performance experiments of Section VI-B:
// for every benchmark it detects the communication pattern with SM and HM,
// builds the two mappings, and then runs the benchmark Repetitions times
// under the OS scheduler model (a fresh random placement per run) and under
// each mapping (fixed placement, varying system noise and workload seed).
//
// The work is expressed as two job lists consumed by internal/runner: one
// detection job per benchmark, then one evaluation job per (benchmark,
// repetition) covering all three placements. Every job derives its
// randomness from (Config.Seed, benchmark, repetition) — never from
// execution order — and results are aggregated in job-index order, so the
// output is bit-identical at every Config.Parallel worker count.
func RunPerformance(cfg Config) ([]PerfResult, error) {
	cfg = cfg.withDefaults()
	machine := cfg.Machine()

	// Phase 1: one job per benchmark — detect the pattern once, build the
	// SM and HM mappings the evaluation runs are pinned to.
	preps, err := runner.Map(cfg.pool("detect"), len(cfg.Benchmarks), func(i int) (perfPrep, error) {
		name := cfg.Benchmarks[i]
		w, err := cfg.workload(name, cfg.Seed)
		if err != nil {
			return perfPrep{}, err
		}
		sm, hm, _, err := core.DetectAll(w, cfg.Options)
		if err != nil {
			return perfPrep{}, fmt.Errorf("harness: detecting %s: %w", name, err)
		}
		edmonds := mapping.NewEdmonds()
		placeSM, err := edmonds.Map(sm.Matrix, machine)
		if err != nil {
			return perfPrep{}, fmt.Errorf("harness: mapping %s from SM: %w", name, err)
		}
		placeHM, err := edmonds.Map(hm.Matrix, machine)
		if err != nil {
			return perfPrep{}, fmt.Errorf("harness: mapping %s from HM: %w", name, err)
		}
		return perfPrep{
			name:     name,
			smMatrix: sm.Matrix,
			result: PerfResult{
				Name: name,
				Stats: map[MappingLabel]*MappingStats{
					OSLabel: {}, SMLabel: {}, HMLabel: {},
				},
				PlacementSM: placeSM,
				PlacementHM: placeHM,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: one job per (benchmark, repetition). Job j covers
	// benchmark j/reps, repetition j%reps, and evaluates the OS, SM and
	// HM placements on the live engine, each on a fresh instance of the
	// job's workload. They share one core.Evaluator, so a placement that
	// repeats (most often HM equal to SM) is simulated once.
	reps := cfg.Repetitions
	runs, err := runner.Map(cfg.pool("perf"), len(preps)*reps, func(j int) (repMetrics, error) {
		p := preps[j/reps]
		rep := j % reps
		seed := cfg.jobSeed(p.name, "workload", rep)
		wr, err := cfg.workload(p.name, seed)
		if err != nil {
			return repMetrics{}, err
		}
		opt := cfg.Options
		opt.JitterSeed = cfg.jobSeed(p.name, "jitter", rep)
		osPlace, err := mapping.NewOSScheduler(cfg.jobSeed(p.name, "os", rep)).Map(p.smMatrix, machine)
		if err != nil {
			return repMetrics{}, err
		}
		ev := core.NewEvaluator(wr)
		var out repMetrics
		for _, run := range []struct {
			label MappingLabel
			place []int
			dst   *core.RunMetrics
		}{
			{OSLabel, osPlace, &out.os},
			{SMLabel, p.result.PlacementSM, &out.sm},
			{HMLabel, p.result.PlacementHM, &out.hm},
		} {
			m, err := ev.EvaluateMetrics(run.place, opt)
			if err != nil {
				return repMetrics{}, fmt.Errorf("harness: %s/%s rep %d: %w", p.name, run.label, rep, err)
			}
			*run.dst = m
		}
		cfg.logf("perf %s rep %d: OS %d, SM %d, HM %d cycles",
			p.name, rep, out.os.Cycles, out.sm.Cycles, out.hm.Cycles)
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in job-index order: benchmark-major, repetition-minor —
	// the same order a sequential loop would produce.
	out := make([]PerfResult, 0, len(preps))
	for bi, p := range preps {
		pr := p.result
		for rep := 0; rep < reps; rep++ {
			r := runs[bi*reps+rep]
			pr.Stats[OSLabel].record(r.os)
			pr.Stats[SMLabel].record(r.sm)
			pr.Stats[HMLabel].record(r.hm)
		}
		cfg.logf("performance %s: time SM %.3f, HM %.3f (normalized to OS)",
			pr.Name, pr.Normalized(SMLabel, "time"), pr.Normalized(HMLabel, "time"))
		out = append(out, pr)
	}
	return out, nil
}

// Table3Row is one row of Table III: the SM mechanism statistics of one
// benchmark.
type Table3Row struct {
	Name string
	// MissRate is the TLB miss rate over all data accesses.
	MissRate float64
	// SampledFraction is the fraction of TLB misses that triggered a
	// search.
	SampledFraction float64
	// Overhead is the fraction of total cycles spent in the detection
	// routine.
	Overhead float64
	// Searches is the number of searches executed.
	Searches uint64
}

// RunTable3 measures the SM statistics of Table III: each benchmark runs
// once with the SM detector live on software-managed TLBs. Unless the
// config overrides it, the sampling period is the paper's n = 100 (search
// on 1% of misses), since this experiment is about overhead rather than
// pattern quality.
func RunTable3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	if cfg.Options.SampleEvery == 0 {
		cfg.Options.SampleEvery = 100
	}
	return runner.Map(cfg.pool("table3"), len(cfg.Benchmarks), func(i int) (Table3Row, error) {
		name := cfg.Benchmarks[i]
		w, err := cfg.workload(name, cfg.Seed)
		if err != nil {
			return Table3Row{}, err
		}
		det, err := core.Detect(w, core.SM, cfg.Options)
		if err != nil {
			return Table3Row{}, fmt.Errorf("harness: table3 %s: %w", name, err)
		}
		cfg.logf("table3 %s: miss rate %.4f%%, overhead %.4f%%",
			name, det.Result.TLBMissRate*100, det.Result.DetectionOverhead*100)
		return Table3Row{
			Name:            name,
			MissRate:        det.Result.TLBMissRate,
			SampledFraction: det.SampledFraction,
			Overhead:        det.Result.DetectionOverhead,
			Searches:        det.Result.Counters.Get(metrics.DetectionSearches),
		}, nil
	})
}

// HMOverheadRow reports the HM mechanism's overhead (Section VI-C's second
// half: the paper reports <0.85% at a 10M-cycle interval).
type HMOverheadRow struct {
	Name string
	// Interval is the scan interval the measurement ran at.
	Interval uint64
	Scans    uint64
	// Overhead is the measured fraction of cycles spent scanning.
	Overhead float64
	// PaperIntervalOverhead is the steady-state overhead at the paper's
	// 10M-cycle interval. Because the scan stops the world for a fixed
	// HMScanCycles, the steady-state overhead is scan cost / interval —
	// identical for every application, exactly as the paper observes
	// ("the hardware-managed TLB causes the same overhead for all
	// applications").
	PaperIntervalOverhead float64
}

// RunHMOverhead measures HM scan overhead per benchmark. Unless the config
// overrides it, the measurement interval is 1M cycles so that the short
// simulated runs contain several scans; the row also carries the
// steady-state overhead at the paper's 10M-cycle interval, which is what
// Section VI-C reports (<0.85%).
func RunHMOverhead(cfg Config) ([]HMOverheadRow, error) {
	cfg = cfg.withDefaults()
	if cfg.Options.ScanInterval == 0 {
		cfg.Options.ScanInterval = 1_000_000
	}
	const paperInterval = 10_000_000
	return runner.Map(cfg.pool("hm-overhead"), len(cfg.Benchmarks), func(i int) (HMOverheadRow, error) {
		name := cfg.Benchmarks[i]
		w, err := cfg.workload(name, cfg.Seed)
		if err != nil {
			return HMOverheadRow{}, err
		}
		det, err := core.Detect(w, core.HM, cfg.Options)
		if err != nil {
			return HMOverheadRow{}, fmt.Errorf("harness: hm overhead %s: %w", name, err)
		}
		return HMOverheadRow{
			Name:                  name,
			Interval:              cfg.Options.ScanInterval,
			Scans:                 det.Result.Counters.Get(metrics.DetectionSearches),
			Overhead:              det.Result.DetectionOverhead,
			PaperIntervalOverhead: float64(comm.HMScanCycles) / paperInterval,
		}, nil
	})
}

// StorageRow compares the storage cost of trace-based detection (the
// related-work approach) against the TLB mechanism's communication matrix
// for one benchmark — the paper's Section II argument, measured.
type StorageRow struct {
	Name        string
	Accesses    uint64
	TraceBytes  uint64
	MatrixBytes uint64
}

// Ratio returns trace bytes per matrix byte.
func (r StorageRow) Ratio() float64 {
	if r.MatrixBytes == 0 {
		return 0
	}
	return float64(r.TraceBytes) / float64(r.MatrixBytes)
}

// RunStorageCost measures the trace-vs-matrix storage comparison.
func RunStorageCost(cfg Config) ([]StorageRow, error) {
	cfg = cfg.withDefaults()
	threads := cfg.Machine().NumCores()
	return runner.Map(cfg.pool("storage"), len(cfg.Benchmarks), func(i int) (StorageRow, error) {
		name := cfg.Benchmarks[i]
		w, err := cfg.workload(name, cfg.Seed)
		if err != nil {
			return StorageRow{}, err
		}
		records, bytes, err := core.MeasureTraceSize(w, cfg.Options)
		if err != nil {
			return StorageRow{}, fmt.Errorf("harness: storage %s: %w", name, err)
		}
		cfg.logf("storage %s: %d trace bytes for %d accesses", name, bytes, records)
		return StorageRow{
			Name:        name,
			Accesses:    records,
			TraceBytes:  bytes,
			MatrixBytes: uint64(threads * threads * 8), // one uint64 per cell
		}, nil
	})
}
