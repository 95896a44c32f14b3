// Command bench is the repository benchmark. One process runs one workload
// of the paper-reproduction pipeline (repro-npb, manycore-256) or of the
// mapperd serving plane (serve-ingest, serve-durable), checks the outputs,
// prints every metric by name with its unit, and ends with one JSON result
// line:
//
//	bash bench/run.sh --workload repro-npb --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the same work with spans recorded around every call into the
// repository's layers and reports the per-layer metrics instead, writing
// the spans and their self-time summary under .bench_build/traces/.
// --smoke shrinks every workload to toy size (class S, Manycore(32),
// half-second serving phases). See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s; package
// variables are initialised before main runs.
var processStart = time.Now()

// outDir holds everything a run writes: durable-server directories and span
// files. bench/run.sh builds into the same directory.
const outDir = ".bench_build"

// metricSpec names one reported metric. The two tables below must list
// exactly the metrics of BENCHMARK.json (TestManifestMatchesDriver).
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports. Every workload reports
// every one of them; README.md defines each workload's unit of work.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"units_per_s", "1/s", "higher"},
	{"cost_ratio", "ratio", "lower"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reads 0.
var perLayer = []metricSpec{
	{"process.cpu_us_per_unit", "us", "lower"},
	{"runner.job_ms", "ms", "lower"},
	{"runner.job_tail_ms", "ms", "lower"},
	{"runner.idle_s", "s", "lower"},
	{"runner.job_self_s", "s", "lower"},
	{"runner.reconcile_ratio", "ratio", "lower"},
	{"tracing.overhead_s", "s", "lower"},
	{"tracing.spans", "count", "lower"},

	{"trace.compile_s", "s", "lower"},
	{"trace.compiles", "count", "higher"},

	{"sim.replay_s", "s", "lower"},
	{"sim.replays", "count", "higher"},
	{"sim.cycles.os", "count", "lower"},
	{"sim.cycles.sm", "count", "lower"},
	{"sim.cycles.hm", "count", "lower"},
	{"mem.l2_misses.os", "count", "lower"},
	{"mem.l2_misses.sm", "count", "lower"},
	{"mem.l2_misses.hm", "count", "lower"},
	{"mem.invalidations.os", "count", "lower"},
	{"mem.invalidations.sm", "count", "lower"},
	{"mem.invalidations.hm", "count", "lower"},
	{"mem.snoops.os", "count", "lower"},
	{"mem.snoops.sm", "count", "lower"},
	{"mem.snoops.hm", "count", "lower"},
	{"mem.interchip.os", "count", "lower"},
	{"mem.interchip.sm", "count", "lower"},
	{"mem.interchip.hm", "count", "lower"},
	{"sim.time_norm_sm", "ratio", "lower"},
	{"sim.time_norm_hm", "ratio", "lower"},
	{"sim.paper_err", "ratio", "lower"},
	{"tlb.misses", "count", "lower"},
	{"mem.l1_misses", "count", "lower"},

	{"comm.detect_s", "s", "lower"},
	{"comm.sm_detect_s", "s", "lower"},
	{"comm.hm_detect_s", "s", "lower"},
	{"comm.accesses", "count", "higher"},
	{"comm.accesses_per_s", "1/s", "higher"},
	{"comm.searches", "count", "lower"},
	{"comm.detection_cycles", "count", "lower"},

	{"mapping.map_s", "s", "lower"},
	{"mapping.calls", "count", "higher"},
	{"mapping.nnz", "count", "higher"},

	{"serve.ingest_us_p50", "us", "lower"},
	{"serve.ingest_us_p99", "us", "lower"},
	{"serve.query_us_p50", "us", "lower"},
	{"serve.query_us_p99", "us", "lower"},
	{"protocol.wire_us_p50", "us", "lower"},
	{"serve.queue_len_max", "count", "lower"},
	{"serve.drain_s", "s", "lower"},
	{"serve.overloads", "count", "lower"},
	{"serve.degraded", "count", "lower"},
	{"serve.knee_eps", "1/s", "higher"},

	{"wal.append_us_p50", "us", "lower"},
	{"wal.sync_us_p50", "us", "lower"},
	{"wal.sync_us_p99", "us", "lower"},
	{"wal.recover_s", "s", "lower"},

	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"curve.low.ack_p99_ms", "ms", "lower"},
	{"curve.low.achieved_eps", "1/s", "higher"},
	{"curve.gate.ack_p50_ms", "ms", "lower"},
	{"curve.gate.ack_p99_ms", "ms", "lower"},
	{"curve.gate.query_p50_ms", "ms", "lower"},
	{"curve.gate.query_p99_ms", "ms", "lower"},
	{"curve.gate.achieved_eps", "1/s", "higher"},
	{"curve.high.ack_p99_ms", "ms", "lower"},
	{"curve.high.achieved_eps", "1/s", "higher"},
}

// workloads maps each BENCHMARK.json workload to its driver.
var workloads = map[string]func(*run) error{
	"repro-npb":     runRepro,
	"manycore-256":  runManycore,
	"serve-ingest":  func(r *run) error { return runServe(r, serveIngest) },
	"serve-durable": func(r *run) error { return runServe(r, serveDurable) },
}

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow repetition does not move it. Smoke runs, which
// report no meaningful times, build it twice.
const setupRepeats = 9

// moreSetups reports whether the run has set-up repetitions left to make.
func (r *run) moreSetups() bool {
	if r.smoke {
		return len(r.setups) < 2
	}
	return len(r.setups) < setupRepeats
}

// run is the state of one benchmark process.
type run struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	// workers is the runner pool size and the serving connection count:
	// one per CPU the process may use.
	workers int
	// tr records spans; nil in an untraced run.
	tr  *tracer
	out io.Writer

	metrics   map[string]float64
	setups    []float64
	attempted int
	failed    int
	problems  []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// logf prints one line of the run's output.
func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// broken records a failed output check; the run then reports
// "correct": false and exits non-zero.
func (r *run) broken(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setupDone records one set-up repetition that began at start. The first
// repetition is charged from process start.
func (r *run) setupDone(start time.Time) {
	if len(r.setups) == 0 {
		start = processStart
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (repro-npb, manycore-256, serve-ingest, serve-durable)")
		seed     = flag.Int64("seed", 1, "seed every input of the run is derived from")
		seconds  = flag.Int("seconds", 20, "measured duration the run is sized for")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "run the workload at toy size")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> (unknown workload %q?)\n", *workload)
		os.Exit(2)
	}
	ok, err := execute(*workload, *seed, *seconds, *trace == 1, *smoke, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// execute runs one workload, printing its progress and report to out, and
// returns whether every output check passed. An error means the run could
// not complete; it prints no result line.
func execute(workload string, seed int64, seconds int, traced, smoke bool, out io.Writer) (bool, error) {
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  float64(seconds),
		smoke:    smoke,
		workers:  runtime.GOMAXPROCS(0),
		out:      out,
		metrics:  map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	if err := workloads[workload](r); err != nil {
		return false, err
	}
	r.set("setup_s", median(r.setups))
	r.logf("set-up repetitions (s): %.4f", r.setups)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if r.tr != nil {
		r.set("tracing.spans", float64(r.tr.count()))
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path, r.metrics); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("spans written to %s", path)
	}
	return r.report(), nil
}

// report prints the reported metrics by name with their units, then the
// JSON result line, and returns whether every output check passed.
func (r *run) report() bool {
	specs := endToEnd
	if r.tr != nil {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		switch {
		case !ok && r.tr == nil:
			r.broken("end-to-end metric %s was not measured", s.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.broken("metric %s is %v", s.name, v)
			v = 0
		case r.tr == nil && v <= 0:
			r.broken("end-to-end metric %s is %v, want > 0", s.name, v)
		}
		r.logf("metric %-26s %16.6f %s", s.name, v, s.unit)
		out[s.name] = value{v, s.unit}
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.broken("no operation was attempted")
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		r.logf("CHECK FAILED: %s", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	r.logf("%s", line)
	return len(r.problems) == 0
}

// cpuSeconds returns the CPU time (user + system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
