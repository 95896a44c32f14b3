// Command experiments regenerates every table and figure of the paper's
// evaluation section. Without flags it runs the full suite; -exp selects a
// single experiment.
//
// Usage:
//
//	experiments [-exp all|table1..table5|fig4..fig9|hm-overhead|storage|compare|faults|scale]
//	            [-suite npb|splash] [-class S|W] [-reps N] [-bench BT,CG,...]
//	            [-seed N] [-parallel N] [-csv DIR] [-check] [-v]
//	            [-faults SPEC] [-fault-seed N] [-fault-rates R1,R2,...] [-job-timeout D]
//	            [-cores N1,N2,...] [-mappers M1,M2,...] [-row-budget K]
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// -check arms the internal/check invariant suite (sequential memory
// oracle, MESI legality, TLB consistency, counter conservation) on every
// simulation job; an invariant violation aborts the experiment.
//
// -faults arms the fault-injection layer on every simulation job. SPEC is
// a comma-separated scenario[:rate] list, e.g. "shootdown,scandrop:0.8"
// or "all:0.3"; scenarios are shootdown, migflush, scandrop, sampleloss,
// preempt, decay. "-exp faults" runs the graceful-degradation study
// instead: it sweeps -fault-rates over the armed plan (default all:1)
// across SM/HM detection on a UMA and a NUMA machine and prints the
// fault-rate -> mapping-quality/slowdown curve.
//
// "-exp scale" runs the manycore scale-up study: SM detection with one
// thread per core on the canonical manycore topology across the -cores
// sweep, reporting detection throughput (events/sec), the detected
// matrix's shape, and per -mappers entry the mapping wall time and the
// mapped-vs-identity communication-cost ratio. -row-budget K trims a copy
// of each detected matrix to every row's K heaviest partners before
// mapping, to measure what a top-K sketch costs in mapping quality.
//
// Ctrl-C cancels in-flight simulations promptly; -job-timeout (e.g. 90s)
// additionally bounds each fault-study or scale-study cell, turning a
// wedged cell into a reported failure instead of a hung run.
//
// Independent simulation jobs fan out over -parallel workers (0 = one per
// CPU). Output is bit-identical at every worker count: each job's seed is
// derived from (base seed, benchmark, repetition), never from execution
// order.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tlbmap/internal/core"
	"tlbmap/internal/fault"
	"tlbmap/internal/harness"
	"tlbmap/internal/npb"
	"tlbmap/internal/prof"
	"tlbmap/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp      = flag.String("exp", "all", "experiment to run (all, table1..table5, fig4..fig9, hm-overhead, storage, compare, faults, scale)")
		suite    = flag.String("suite", "npb", "workload suite: npb (the paper) or splash (extension)")
		class    = flag.String("class", "W", "problem class: S (tiny) or W (evaluation scale)")
		reps     = flag.Int("reps", 10, "repetitions per mapping for tables IV/V (paper: 100)")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		seed     = flag.Int64("seed", 1, "base random seed")
		parallel = flag.Int("parallel", 0, "worker goroutines for simulation jobs (0 = one per CPU, 1 = sequential; output is identical at any value)")
		csvDir   = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		chk      = flag.Bool("check", false, "arm the runtime invariant checkers on every simulation job; slower")
		verbose  = flag.Bool("v", false, "print progress (jobs done/total and per-job simulated cycles)")

		faults     = flag.String("faults", "", "fault scenarios to arm on every job: scenario[:rate],... or all[:rate]")
		faultSeed  = flag.Int64("fault-seed", 1, "seed of the fault-injection RNG streams")
		faultRates = flag.String("fault-rates", "0,0.25,0.5,1", "rate sweep of the -exp faults degradation study")
		jobTimeout = flag.Duration("job-timeout", 0, "per-cell timeout of the -exp faults and -exp scale studies (0 = none), e.g. 90s")

		cores     = flag.String("cores", "64,256", "core-count sweep of the -exp scale study (power-of-two multiples of 32)")
		mappers   = flag.String("mappers", "", "mapper sweep of the -exp scale study: greedy,multilevel,auto,edmonds (default greedy,multilevel,auto)")
		rowBudget = flag.Int("row-budget", 0, "-exp scale: trim each detected matrix to every row's N heaviest partners before mapping (0 = exact)")

		profiling = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	stopProf, profErr := profiling.Start()
	if profErr != nil {
		log.Fatal(profErr)
	}
	defer stopProf()

	// Ctrl-C cancels in-flight simulation jobs through the engine's
	// interrupt hook and the hardened runner's context.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	plan, err := fault.ParsePlan(*faults, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}

	workers := *parallel
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}
	cfg := harness.Config{
		Suite:       strings.ToLower(*suite),
		Class:       npb.Class(strings.ToUpper(*class)),
		Repetitions: *reps,
		Seed:        *seed,
		Parallel:    workers,
		Options:     core.Options{Check: *chk, Faults: plan, Interrupt: ctx.Done()},
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			// Skip empty entries so "-bench SP,," or "-bench ''" doesn't
			// turn into a lookup of the empty benchmark name.
			if b = strings.ToUpper(strings.TrimSpace(b)); b != "" {
				cfg.Benchmarks = append(cfg.Benchmarks, b)
			}
		}
	}
	if *verbose {
		cfg.Progress = func(format string, args ...any) { log.Printf(format, args...) }
	}
	if !plan.Empty() {
		fmt.Printf("fault injection armed on every job: %s (seed %d)\n", plan, plan.Seed)
	}

	if strings.ToLower(*exp) == "faults" {
		if err := runFaultStudy(ctx, cfg, plan, *faultRates, *jobTimeout, *csvDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if strings.ToLower(*exp) == "scale" {
		if err := runScaleStudy(ctx, cfg, *cores, *mappers, *rowBudget, *jobTimeout, *csvDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(cfg, strings.ToLower(*exp), *csvDir); err != nil {
		log.Fatal(err)
	}
}

// runFaultStudy drives the -exp faults degradation sweep.
func runFaultStudy(ctx context.Context, cfg harness.Config, plan fault.Plan, rateSpec string, jobTimeout time.Duration, csvDir string) error {
	var rates []float64
	for _, s := range strings.Split(rateSpec, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil || r < 0 || r > 1 {
			return fmt.Errorf("bad fault rate %q (want numbers in [0,1])", s)
		}
		rates = append(rates, r)
	}
	scfg := harness.FaultStudyConfig{
		Config:     cfg,
		Plan:       plan,
		Rates:      rates,
		JobTimeout: jobTimeout,
	}
	// The study arms its own per-cell plans; don't double-inject.
	scfg.Options.Faults = fault.Plan{}
	rows, failed, err := harness.RunFaultStudy(ctx, scfg)
	if err != nil {
		return err
	}
	for _, f := range failed {
		log.Printf("warning: study cell failed: %v", f)
	}
	fmt.Print(harness.RenderFaultStudy(rows))
	if csvDir != "" {
		if err := writeCSV(csvDir, "fault_study.csv", func(f *os.File) error {
			return harness.WriteFaultStudyCSV(f, rows)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runScaleStudy drives the -exp scale manycore sweep.
func runScaleStudy(ctx context.Context, cfg harness.Config, coreSpec, mapperSpec string, rowBudget int, jobTimeout time.Duration, csvDir string) error {
	scfg := harness.ScaleStudyConfig{
		Config:     cfg,
		RowBudget:  rowBudget,
		JobTimeout: jobTimeout,
	}
	// Progress and gate warnings to stderr: a sweep cell can run for
	// minutes, and a silently dropped mapper row (the edmonds gate) would
	// otherwise be indistinguishable from a typo.
	scfg.Progress = log.Printf
	for _, s := range strings.Split(coreSpec, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad core count %q", s)
		}
		scfg.Cores = append(scfg.Cores, n)
	}
	for _, s := range strings.Split(mapperSpec, ",") {
		if s = strings.TrimSpace(strings.ToLower(s)); s != "" {
			scfg.Mappers = append(scfg.Mappers, s)
		}
	}
	rows, failed, err := harness.RunScaleStudy(ctx, scfg)
	if err != nil {
		return err
	}
	for _, f := range failed {
		log.Printf("warning: study cell failed: %v", f)
	}
	fmt.Print(harness.RenderScaleStudy(rows))
	if csvDir != "" {
		if err := writeCSV(csvDir, "scale_study.csv", func(f *os.File) error {
			return harness.WriteScaleStudyCSV(f, rows)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes one CSV artifact into dir.
func writeCSV(dir, name string, write func(w *os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func writeTable3CSV(dir string, rows []harness.Table3Row) error {
	return writeCSV(dir, "table3.csv", func(f *os.File) error {
		return harness.WriteTable3CSV(f, rows)
	})
}

func run(cfg harness.Config, exp string, csvDir string) error {
	needPatterns := exp == "all" || exp == "fig4" || exp == "fig5"
	needPerf := exp == "all" || exp == "table4" || exp == "table5" ||
		strings.HasPrefix(exp, "fig6") || strings.HasPrefix(exp, "fig7") ||
		strings.HasPrefix(exp, "fig8") || strings.HasPrefix(exp, "fig9")

	switch exp {
	case "table1":
		fmt.Print(harness.Table1(cfg))
		return nil
	case "table2":
		fmt.Print(harness.Table2(cfg))
		return nil
	case "table3":
		rows, err := harness.RunTable3(cfg)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderTable3(rows))
		return writeTable3CSV(csvDir, rows)
	case "hm-overhead":
		rows, err := harness.RunHMOverhead(cfg)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderHMOverhead(rows))
		return nil
	case "storage":
		rows, err := harness.RunStorageCost(cfg)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderStorageCost(rows))
		return nil
	case "compare":
		rows, err := harness.Compare(cfg)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderCompare(rows))
		return nil
	}

	var patterns []harness.PatternResult
	var perf []harness.PerfResult
	var err error
	if needPatterns {
		patterns, err = harness.DetectPatterns(cfg)
		if err != nil {
			return err
		}
	}
	if needPerf {
		perf, err = harness.RunPerformance(cfg)
		if err != nil {
			return err
		}
	}

	emit := func(title, body string) {
		fmt.Println("==== " + title + " ====")
		fmt.Println(body)
	}

	// Machine-readable artifacts for whatever was computed.
	if csvDir != "" && len(perf) > 0 {
		if err := writeCSV(csvDir, "performance.csv", func(f *os.File) error {
			return harness.WritePerformanceCSV(f, perf)
		}); err != nil {
			return err
		}
	}
	if csvDir != "" && len(patterns) > 0 {
		if err := writeCSV(csvDir, "patterns.csv", func(f *os.File) error {
			return harness.WritePatternsCSV(f, patterns)
		}); err != nil {
			return err
		}
	}

	switch exp {
	case "fig4":
		emit("Figure 4: communication patterns detected by SM", harness.RenderPatterns(patterns, "SM"))
	case "fig5":
		emit("Figure 5: communication patterns detected by HM", harness.RenderPatterns(patterns, "HM"))
	case "fig6", "fig7", "fig8", "fig9":
		metric := map[string]string{"fig6": "time", "fig7": "inv", "fig8": "snoop", "fig9": "l2miss"}[exp]
		fmt.Print(harness.RenderFigure(perf, metric))
	case "table4":
		fmt.Print(harness.RenderTable4(perf))
	case "table5":
		fmt.Print(harness.RenderTable5(perf))
	case "all":
		emit("Table I", harness.Table1(cfg))
		emit("Table II", harness.Table2(cfg))
		emit("Figure 4: communication patterns detected by SM", harness.RenderPatterns(patterns, "SM"))
		emit("Figure 5: communication patterns detected by HM", harness.RenderPatterns(patterns, "HM"))
		emit("Oracle (full-trace) reference patterns", harness.RenderPatterns(patterns, "oracle"))
		for _, metric := range []string{"time", "inv", "snoop", "l2miss"} {
			fmt.Println(harness.RenderFigure(perf, metric))
		}
		rows3, err := harness.RunTable3(cfg)
		if err != nil {
			return err
		}
		emit("Table III", harness.RenderTable3(rows3))
		if err := writeTable3CSV(csvDir, rows3); err != nil {
			return err
		}
		rowsHM, err := harness.RunHMOverhead(cfg)
		if err != nil {
			return err
		}
		emit("HM overhead", harness.RenderHMOverhead(rowsHM))
		storage, err := harness.RunStorageCost(cfg)
		if err != nil {
			return err
		}
		emit("Storage cost (Section II motivation)", harness.RenderStorageCost(storage))
		emit("Table IV", harness.RenderTable4(perf))
		emit("Table V", harness.RenderTable5(perf))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
		os.Exit(2)
	}
	return nil
}
