package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/core"
	"tlbmap/internal/harness"
	"tlbmap/internal/mapping"
	"tlbmap/internal/metrics"
	"tlbmap/internal/npb"
	"tlbmap/internal/paperdata"
	"tlbmap/internal/runner"
	"tlbmap/internal/stats"
	"tlbmap/internal/topology"
)

// A suite is the unit of work of the simulation workloads: one seed of the
// pipeline, fanned out as jobs over a runner pool of r.workers workers.

// suiteResult is what one suite measured.
type suiteResult struct {
	seed  int64
	wall  float64 // seconds from the first job's start to the last job's end
	count int     // jobs run
	// jobs holds job times in seconds by job type, for the suites that run
	// their own job loop; the instances of one type do the same work on
	// different inputs.
	jobs   map[string][]float64
	ratios []float64 // Cost(placement) / Cost(identity) of every placement built
	digest uint64    // FNV-64a over every simulated result and placement
	// counts are per-layer work and simulated-event counts, summed over
	// the suite's jobs.
	counts map[string]float64
	// perf is repro-npb's evaluation as harness.RunPerformance reports it.
	perf     []harness.PerfResult
	problems []string
}

// suiteRun is the shared state of one suite's jobs.
type suiteRun struct {
	tr  *tracer
	mu  sync.Mutex
	res suiteResult
}

func newSuiteRun(tr *tracer) *suiteRun {
	return &suiteRun{tr: tr, res: suiteResult{counts: map[string]float64{}, jobs: map[string][]float64{}}}
}

// job runs one runner job of the given type, timing it and recording it as
// a root span.
func (s *suiteRun) job(typ, req string, fn func(parent int64) error) error {
	start := time.Now()
	sp := s.tr.begin("runner.job", 0, req)
	err := fn(sp.id)
	s.tr.end(sp)
	d := time.Since(start).Seconds()
	s.mu.Lock()
	s.res.jobs[typ] = append(s.res.jobs[typ], d)
	s.res.count++
	s.mu.Unlock()
	return err
}

// call runs fn inside a span.
func (s *suiteRun) call(name string, parent int64, req string, fn func() error) error {
	sp := s.tr.begin(name, parent, req)
	err := fn()
	s.tr.end(sp)
	return err
}

// add folds counts into the suite's totals.
func (s *suiteRun) add(kv map[string]float64) {
	s.mu.Lock()
	for k, v := range kv {
		s.res.counts[k] += v
	}
	s.mu.Unlock()
}

// place builds a placement from a communication matrix, scores it against
// the identity and checks that it is a permutation of the machine's cores.
func (s *suiteRun) place(alg mapping.Algorithm, m *comm.Matrix, machine *topology.Machine, parent int64, req string) ([]int, error) {
	var p []int
	err := s.call("mapping.map", parent, req, func() (err error) {
		p, err = alg.Map(m, machine)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: mapping: %w", req, err)
	}
	ratio, ok := costRatio(m, machine, p)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.counts["mapping.nnz"] += float64(m.NNZ())
	if ok {
		s.res.ratios = append(s.res.ratios, ratio)
	}
	if !isPermutation(p, machine.NumCores()) {
		s.res.problems = append(s.res.problems, fmt.Sprintf("%s: placement %v is not a permutation of %d cores", req, p, machine.NumCores()))
	}
	return p, nil
}

// costRatio scores a placement against the identity on the same matrix;
// ok is false when the matrix records no communication to score.
func costRatio(m *comm.Matrix, machine *topology.Machine, place []int) (ratio float64, ok bool) {
	identity := make([]int, len(place))
	for i := range identity {
		identity[i] = i
	}
	id := mapping.Cost(m, machine, identity)
	if id == 0 {
		return 0, false
	}
	return float64(mapping.Cost(m, machine, place)) / float64(id), true
}

// isPermutation reports whether p maps n threads onto n distinct cores.
func isPermutation(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, c := range p {
		if c < 0 || c >= n || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// detectionCounts extracts the per-layer counts of one detection run.
func detectionCounts(d *core.Detection) map[string]float64 {
	c := d.Result.Counters
	return map[string]float64{
		"comm.accesses":         float64(d.Result.Accesses),
		"comm.searches":         float64(c.Get(metrics.DetectionSearches)),
		"comm.detection_cycles": float64(c.Get(metrics.DetectionCycles)),
		"tlb.misses":            float64(c.Get(metrics.TLBMisses)),
		"mem.l1_misses":         float64(c.Get(metrics.L1Misses)),
	}
}

func digestInts(h hash.Hash64, xs []int) {
	for _, x := range xs {
		binary.Write(h, binary.LittleEndian, int64(x))
	}
}

// perfLabels are the evaluation's placements, in digest order.
var perfLabels = []harness.MappingLabel{harness.OSLabel, harness.SMLabel, harness.HMLabel}

// perfDigest is an FNV-64a digest of an evaluation as
// harness.RunPerformance reports it: per benchmark the SM and HM
// placements, then per placement and repetition the simulated time and the
// invalidation, snoop and L2-miss counts.
func perfDigest(perf []harness.PerfResult) uint64 {
	h := fnv.New64a()
	for _, pr := range perf {
		digestInts(h, pr.PlacementSM)
		digestInts(h, pr.PlacementHM)
		for _, l := range perfLabels {
			st := pr.Stats[l]
			for _, s := range []*stats.Sample{&st.Time, &st.Inv, &st.Snoop, &st.L2Miss} {
				for _, v := range s.Values() {
					binary.Write(h, binary.LittleEndian, math.Float64bits(v))
				}
			}
		}
	}
	return h.Sum64()
}

// fig6 summarises an evaluation as Figure 6 does: the geometric mean over
// the benchmarks of the SM- and HM-mapped execution time normalised to the
// OS scheduler's, and the mean absolute distance of the SM value from the
// paper's.
func fig6(perf []harness.PerfResult) (normSM, normHM, paperErr float64) {
	var sm, hm, errs []float64
	for _, pr := range perf {
		v := pr.Normalized(harness.SMLabel, "time")
		sm = append(sm, v)
		hm = append(hm, pr.Normalized(harness.HMLabel, "time"))
		if paper, _, _, _, ok := paperdata.NormalizedSM(pr.Name); ok {
			errs = append(errs, math.Abs(v-paper))
		}
	}
	for _, e := range errs {
		paperErr += e / float64(len(errs))
	}
	return geomean(sm), geomean(hm), paperErr
}

// reproScale sizes one repro-npb suite.
type reproScale struct {
	class npb.Class
	reps  int
}

// perfSuite runs the paper's performance evaluation (Section VI-B) for one
// seed with harness.RunPerformance on Harpertown, all nine NPB benchmarks:
// one detection job per benchmark (SM and HM detection, Edmonds mappings),
// then one job per (benchmark, repetition) that replays the workload under
// an OS placement and the SM and HM placements.
func perfSuite(sc reproScale, workers int, seed int64) (suiteResult, error) {
	start := time.Now()
	perf, err := harness.RunPerformance(harness.Config{Class: sc.class, Repetitions: sc.reps, Seed: seed, Parallel: workers})
	if err != nil {
		return suiteResult{}, err
	}
	res := suiteResult{
		wall:   time.Since(start).Seconds(),
		count:  len(perf) * (1 + sc.reps),
		perf:   perf,
		digest: perfDigest(perf),
	}
	machine := topology.Harpertown()
	for _, pr := range perf {
		for _, p := range [][]int{pr.PlacementSM, pr.PlacementHM} {
			if !isPermutation(p, machine.NumCores()) {
				res.problems = append(res.problems, fmt.Sprintf("%s: placement %v is not a permutation of %d cores", pr.Name, p, machine.NumCores()))
			}
		}
		for _, l := range perfLabels {
			if t := pr.Stats[l].Time; t.N() != sc.reps || t.Min() <= 0 {
				res.problems = append(res.problems, fmt.Sprintf("%s/%s: %d runs, shortest %v s; want %d runs of positive time", pr.Name, l, t.N(), t.Min(), sc.reps))
			}
		}
	}
	return res, nil
}

// reproCostRatios scores the SM and HM placements of an evaluation against
// the identity on the matrices they were built from. RunPerformance does
// not return its matrices, so they are detected again from the same inputs;
// that Edmonds rebuilds the evaluation's placements from them is checked on
// the way.
func reproCostRatios(sc reproScale, workers int, seed int64, perf []harness.PerfResult) (ratios []float64, problems []string, err error) {
	machine := topology.Harpertown()
	type scored struct {
		ratios   []float64
		problems []string
	}
	outs, err := runner.Map(runner.Pool{Workers: workers}, len(perf), func(i int) (scored, error) {
		var out scored
		pr := perf[i]
		b, err := npb.Get(pr.Name)
		if err != nil {
			return out, err
		}
		sm, hm, _, err := core.DetectAll(core.FromNPB(b, npb.Params{Class: sc.class, Seed: seed}), core.Options{})
		if err != nil {
			return out, fmt.Errorf("%s: %w", pr.Name, err)
		}
		for _, c := range []struct {
			label string
			m     *comm.Matrix
			place []int
		}{{"SM", sm.Matrix, pr.PlacementSM}, {"HM", hm.Matrix, pr.PlacementHM}} {
			p, err := mapping.NewEdmonds().Map(c.m, machine)
			if err != nil {
				return out, fmt.Errorf("%s/%s: mapping: %w", pr.Name, c.label, err)
			}
			if !slices.Equal(p, c.place) {
				out.problems = append(out.problems, fmt.Sprintf("%s/%s: evaluation placement %v, Edmonds on the detected matrix %v", pr.Name, c.label, c.place, p))
			}
			if ratio, ok := costRatio(c.m, machine, c.place); ok {
				out.ratios = append(out.ratios, ratio)
			}
		}
		return out, nil
	})
	for _, o := range outs {
		ratios = append(ratios, o.ratios...)
		problems = append(problems, o.problems...)
	}
	return ratios, problems, err
}

// reproRep is the payload of one evaluation job: the three placements
// replayed on one workload instance.
type reproRep struct{ os, sm, hm core.RunMetrics }

// reproPrep is the payload of one detection job.
type reproPrep struct {
	smMatrix         *comm.Matrix
	placeSM, placeHM []int
}

// reproSuite is perfSuite's job loop rebuilt from the public per-layer
// calls, each wrapped in a span, for traced runs: one detection job per NPB
// benchmark (SM, HM and oracle detectors on one run, then Edmonds mappings
// of the SM and HM matrices), then one job per (benchmark, repetition) that
// compiles the workload once and replays it under a fresh OS placement and
// the SM and HM placements. Every call, seed and option matches
// harness.RunPerformance, so the evaluation is identical to it
// (TestReproSuiteMatchesRunPerformance, and the digest check of every traced
// run); the suite adds timing, spans and the simulated counts the harness
// does not report.
func reproSuite(sc reproScale, workers int, seed int64, tr *tracer) (suiteResult, error) {
	apps := npb.Names()
	machine := topology.Harpertown()
	var opt core.Options
	pool := runner.Pool{Workers: workers}
	s := newSuiteRun(tr)
	start := time.Now()

	preps, err := runner.Map(pool, len(apps), func(i int) (reproPrep, error) {
		var p reproPrep
		name := apps[i]
		req := "detect/" + name
		err := s.job(req, req, func(parent int64) error {
			b, err := npb.Get(name)
			if err != nil {
				return err
			}
			w := core.FromNPB(b, npb.Params{Class: sc.class, Seed: seed})
			var sm, hm *core.Detection
			err = s.call("comm.detect", parent, req, func() (err error) {
				sm, hm, _, err = core.DetectAll(w, opt)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", req, err)
			}
			s.add(detectionCounts(sm))
			edmonds := mapping.NewEdmonds()
			if p.placeSM, err = s.place(edmonds, sm.Matrix, machine, parent, req+"/SM"); err != nil {
				return err
			}
			if p.placeHM, err = s.place(edmonds, hm.Matrix, machine, parent, req+"/HM"); err != nil {
				return err
			}
			p.smMatrix = sm.Matrix
			return nil
		})
		return p, err
	})
	if err != nil {
		return suiteResult{}, err
	}

	reps, err := runner.Map(pool, len(apps)*sc.reps, func(j int) (reproRep, error) {
		var out reproRep
		name, rep, p := apps[j/sc.reps], j%sc.reps, preps[j/sc.reps]
		req := fmt.Sprintf("eval/%s/%d", name, rep)
		err := s.job("eval/"+name, req, func(parent int64) error {
			b, err := npb.Get(name)
			if err != nil {
				return err
			}
			wr := core.FromNPB(b, npb.Params{Class: sc.class, Seed: runner.SeedN(seed, rep, "npb", name, "workload")})
			var cw *core.CompiledWorkload
			s.call("trace.compile", parent, req, func() error {
				cw = core.CompileWorkload(wr, opt)
				return nil
			})
			o := opt
			o.JitterSeed = runner.SeedN(seed, rep, "npb", name, "jitter")
			var osPlace []int
			err = s.call("mapping.os_place", parent, req, func() (err error) {
				osPlace, err = mapping.NewOSScheduler(runner.SeedN(seed, rep, "npb", name, "os")).Map(p.smMatrix, machine)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: OS placement: %w", req, err)
			}
			if !isPermutation(osPlace, machine.NumCores()) {
				s.mu.Lock()
				s.res.problems = append(s.res.problems, fmt.Sprintf("%s: OS placement %v is not a permutation", req, osPlace))
				s.mu.Unlock()
			}
			for _, run := range []struct {
				label string
				place []int
				dst   *core.RunMetrics
			}{{"os", osPlace, &out.os}, {"sm", p.placeSM, &out.sm}, {"hm", p.placeHM, &out.hm}} {
				err := s.call("sim.replay", parent, req+"/"+run.label, func() (err error) {
					*run.dst, err = cw.EvaluateMetrics(run.place, o)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s/%s: %w", req, run.label, err)
				}
				if run.dst.Cycles == 0 {
					return fmt.Errorf("%s/%s: zero simulated cycles", req, run.label)
				}
			}
			return nil
		})
		return out, err
	})
	if err != nil {
		return suiteResult{}, err
	}
	s.res.wall = time.Since(start).Seconds()

	// Assemble the evaluation as RunPerformance reports it.
	for i, name := range apps {
		pr := harness.PerfResult{
			Name:        name,
			Stats:       map[harness.MappingLabel]*harness.MappingStats{},
			PlacementSM: preps[i].placeSM,
			PlacementHM: preps[i].placeHM,
		}
		for rep := 0; rep < sc.reps; rep++ {
			r := reps[i*sc.reps+rep]
			for k, m := range []core.RunMetrics{r.os, r.sm, r.hm} {
				st := pr.Stats[perfLabels[k]]
				if st == nil {
					st = &harness.MappingStats{}
					pr.Stats[perfLabels[k]] = st
				}
				st.Time.Add(float64(m.Cycles) / harness.ClockHz)
				st.Inv.AddUint(m.Invalidations)
				st.Snoop.AddUint(m.Snoops)
				st.L2Miss.AddUint(m.L2Misses)
				label := strings.ToLower(string(perfLabels[k]))
				s.res.counts["sim.cycles."+label] += float64(m.Cycles)
				s.res.counts["mem.l2_misses."+label] += float64(m.L2Misses)
				s.res.counts["mem.invalidations."+label] += float64(m.Invalidations)
				s.res.counts["mem.snoops."+label] += float64(m.Snoops)
				s.res.counts["mem.interchip."+label] += float64(m.InterChip)
			}
		}
		s.res.perf = append(s.res.perf, pr)
	}
	s.res.digest = perfDigest(s.res.perf)
	return s.res, nil
}

// manycoreApps are the NPB kernels of manycore-256. IS is left out: its
// long single-phase run would make this a second engine workload.
var manycoreApps = []string{"CG", "FT", "MG", "UA"}

// manycoreScale sizes one manycore-256 suite.
type manycoreScale struct {
	class npb.Class
	cores int
}

// manycoreSuite runs the detect-and-map path at manycore scale for one
// seed: for each kernel, SM and HM detection on one workload instance with
// one thread per core of topology.Manycore, each followed by the
// size-dispatching mapper (multilevel above 128 threads). There are no
// evaluation runs, so the detectors and the mapper carry the host time.
func manycoreSuite(sc manycoreScale, workers int, seed int64, tr *tracer) (suiteResult, error) {
	machine := topology.Manycore(sc.cores)
	type cell struct {
		app  string
		mech core.Mechanism
	}
	// HM first: it is the longer half, and starting long jobs first keeps
	// the pool's tail short.
	var cells []cell
	for _, mech := range []core.Mechanism{core.HM, core.SM} {
		for _, app := range manycoreApps {
			cells = append(cells, cell{app, mech})
		}
	}
	pool := runner.Pool{Workers: workers}
	s := newSuiteRun(tr)
	start := time.Now()
	type out struct {
		place  []int
		cycles uint64
	}
	outs, err := runner.Map(pool, len(cells), func(i int) (out, error) {
		var o out
		c := cells[i]
		req := fmt.Sprintf("%s/%s", c.app, c.mech)
		err := s.job(req, req, func(parent int64) error {
			b, err := npb.Get(c.app)
			if err != nil {
				return err
			}
			w := core.FromNPB(b, npb.Params{Threads: sc.cores, Class: sc.class, Seed: runner.SeedN(seed, 0, "manycore", c.app)})
			var det *core.Detection
			err = s.call("comm.detect_"+strings.ToLower(string(c.mech)), parent, req, func() (err error) {
				det, err = core.Detect(w, c.mech, core.Options{Machine: machine})
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", req, err)
			}
			s.add(detectionCounts(det))
			o.cycles = det.Result.Cycles
			o.place, err = s.place(mapping.NewAuto(), det.Matrix, machine, parent, req)
			return err
		})
		return o, err
	})
	if err != nil {
		return suiteResult{}, err
	}
	s.res.wall = time.Since(start).Seconds()
	h := fnv.New64a()
	for _, o := range outs {
		digestInts(h, o.place)
		binary.Write(h, binary.LittleEndian, o.cycles)
	}
	s.res.digest = h.Sum64()
	return s.res, nil
}

// runRepro times harness.RunPerformance itself in an untraced run; a traced
// run replaces it with reproSuite, whose evaluation must equal it.
func runRepro(r *run) error {
	sc, warm := reproScale{npb.ClassW, 2}, reproScale{npb.ClassS, 1}
	if r.smoke {
		sc = warm
	}
	all, err := runSuites(r,
		func(seed int64, tr *tracer) (suiteResult, error) {
			if tr == nil {
				return perfSuite(sc, r.workers, seed)
			}
			return reproSuite(sc, r.workers, seed, tr)
		},
		func() error { _, err := perfSuite(warm, r.workers, r.seed); return err })
	if err != nil {
		return err
	}
	if r.tr != nil {
		var sm, hm, paperErr float64
		traced := all[1:]
		for _, res := range traced {
			s, h, e := fig6(res.perf)
			sm += s / float64(len(traced))
			hm += h / float64(len(traced))
			paperErr += e / float64(len(traced))
		}
		r.set("sim.time_norm_sm", sm)
		r.set("sim.time_norm_hm", hm)
		r.set("sim.paper_err", paperErr)
		return nil
	}
	// Placement quality is scored on the first suite only: how many suites
	// fit in a run depends on the host, and scoring detects every matrix
	// again.
	ratios, problems, err := reproCostRatios(sc, r.workers, all[0].seed, all[0].perf)
	if err != nil {
		return fmt.Errorf("scoring placements: %w", err)
	}
	for _, p := range problems {
		r.broken("%s", p)
	}
	r.set("cost_ratio", geomean(ratios))
	return nil
}

func runManycore(r *run) error {
	sc, warm := manycoreScale{npb.ClassW, 256}, manycoreScale{npb.ClassS, 32}
	if r.smoke {
		sc = warm
	}
	all, err := runSuites(r,
		func(seed int64, tr *tracer) (suiteResult, error) { return manycoreSuite(sc, r.workers, seed, tr) },
		func() error { _, err := manycoreSuite(warm, r.workers, r.seed, nil); return err })
	if err != nil {
		return err
	}
	// As on repro-npb, the first suite's placements are scored: how many
	// suites fit in a run depends on the host, and the score must not.
	r.set("cost_ratio", geomean(all[0].ratios))
	return nil
}

// runSuites runs suites for about --seconds, reports the metrics common to
// the simulation workloads and returns the suites: another suite starts
// while at least half of it (judged by the last one) fits in the time left,
// so a slow host runs fewer suites rather than a longer run. Suite i gets
// its own seed. A traced run first runs suite 0 untraced — the baseline the
// tracing overhead and the simulated digest are compared against — and
// counts it in its time, so both kinds of run do about the same amount of
// work. A smoke run runs one suite (and a traced smoke run its baseline).
// The set-up is a warm-up suite on toy-size inputs, repeated setupRepeats
// times: one before each suite, the rest at the end, so its median samples
// the host at different moments.
func runSuites(r *run, suite func(seed int64, tr *tracer) (suiteResult, error), warmUp func() error) ([]suiteResult, error) {
	var (
		cpu, elapsed float64
		all          []suiteResult
	)
	setUp := func() error {
		start := time.Now()
		if err := warmUp(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		r.setupDone(start)
		return nil
	}
	runOne := func(i int, tr *tracer) error {
		if r.moreSetups() {
			if err := setUp(); err != nil {
				return err
			}
		}
		seed := runner.SeedN(r.seed, i, "bench", r.workload)
		cpu0 := cpuSeconds()
		res, err := suite(seed, tr)
		if err != nil {
			return err
		}
		res.seed = seed
		cpu += cpuSeconds() - cpu0
		elapsed += res.wall
		r.logf("suite %d seed %d traced=%v: %.3f s, %d jobs, digest %016x",
			len(all), seed, tr != nil, res.wall, res.count, res.digest)
		for _, msg := range res.problems {
			r.broken("suite %d: %s", len(all), msg)
		}
		all = append(all, res)
		return nil
	}
	if r.tr != nil {
		if err := runOne(0, nil); err != nil {
			return nil, err
		}
	}
	for i := 0; ; i++ {
		if err := runOne(i, r.tr); err != nil {
			return nil, err
		}
		if r.smoke || elapsed+all[len(all)-1].wall/2 > r.seconds {
			break
		}
	}
	for r.moreSetups() {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	var jobs int
	var wall float64
	for _, res := range all {
		jobs += res.count
		wall += res.wall
	}
	r.attempted += jobs
	r.set("units_per_s", float64(jobs)/wall)
	r.set("process.cpu_us_per_unit", cpu/float64(jobs)*1e6)
	if r.tr == nil {
		return all, nil
	}

	base, traced := all[0], all[1:]
	byType := map[string][]float64{}
	for _, res := range traced {
		for typ, xs := range res.jobs {
			byType[typ] = append(byType[typ], xs...)
		}
	}
	typical, slowest, name := typeSummary(byType)
	r.set("runner.job_ms", typical*1e3)
	r.set("runner.job_tail_ms", slowest*1e3)
	var times []float64
	for _, xs := range byType {
		times = append(times, xs...)
	}
	p, v, cnt := tail(times)
	r.logf("%d job types, the slowest %s; job time median %.1f ms, p%g %.1f ms of %d jobs",
		len(byType), name, median(times)*1e3, p, v*1e3, cnt)

	if base.digest != traced[0].digest {
		r.broken("traced suite digest %016x differs from the untraced run of the same seed (%016x)", traced[0].digest, base.digest)
	}
	r.set("tracing.overhead_s", traced[0].wall-base.wall)
	var tracedWall float64
	for _, res := range traced {
		tracedWall += res.wall
		for k, v := range res.counts {
			r.metrics[k] += v
		}
	}

	self := r.tr.selfTimes()
	r.set("runner.job_self_s", self["runner.job"].SelfS)
	r.set("trace.compile_s", self["trace.compile"].SelfS)
	r.set("trace.compiles", float64(self["trace.compile"].Count))
	r.set("sim.replay_s", self["sim.replay"].SelfS)
	r.set("sim.replays", float64(self["sim.replay"].Count))
	sm, hm := self["comm.detect_sm"].SelfS, self["comm.detect_hm"].SelfS
	detect := self["comm.detect"].SelfS + sm + hm
	r.set("comm.sm_detect_s", sm)
	r.set("comm.hm_detect_s", hm)
	r.set("comm.detect_s", detect)
	if detect > 0 {
		r.set("comm.accesses_per_s", r.metrics["comm.accesses"]/detect)
	}
	r.set("mapping.map_s", self["mapping.map"].SelfS+self["mapping.os_place"].SelfS)
	r.set("mapping.calls", float64(self["mapping.map"].Count))

	// Every span of a suite sits inside a job span, so the self times of
	// all layers plus the workers' idle time should account for the pool's
	// capacity over the traced wall time.
	capacity := float64(r.workers) * tracedWall
	idle := capacity - self["runner.job"].TotalS
	var selfSum float64
	for _, lt := range self {
		selfSum += lt.SelfS
	}
	r.set("runner.idle_s", idle)
	ratio := (selfSum + idle) / capacity
	r.set("runner.reconcile_ratio", ratio)
	if math.Abs(ratio-1) > 0.10 {
		r.broken("layer self times plus idle time cover %.3f of workers x wall, want within 10%%", ratio)
	}
	return all, nil
}

// typeSummary condenses job times grouped by type: the median of each
// type's instances, then the geometric mean over types — the typical job —
// and the slowest type, which bounds how long a suite takes.
func typeSummary(byType map[string][]float64) (typical, slowest float64, slowestType string) {
	var per []float64
	for typ, xs := range byType {
		v := median(xs)
		per = append(per, v)
		if v > slowest {
			slowest, slowestType = v, typ
		}
	}
	return geomean(per), slowest, slowestType
}
