package fault_test

import (
	"testing"

	"tlbmap/internal/check"
	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/sim"
)

func planFor(k fault.Kind, rate float64, seed int64) fault.Plan {
	p := fault.Plan{Seed: seed}
	p.Intensity[k] = rate
	return p
}

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec string
		want map[fault.Kind]float64
	}{
		{"", nil},
		{"none", nil},
		{"shootdown", map[fault.Kind]float64{fault.ShootdownStorm: 0.5}},
		{"scandrop:0.8,decay:0.2", map[fault.Kind]float64{fault.ScanDrop: 0.8, fault.MatrixDecay: 0.2}},
		{"all:0.3", map[fault.Kind]float64{
			fault.ShootdownStorm: 0.3, fault.MigrationFlush: 0.3, fault.ScanDrop: 0.3,
			fault.SampleLoss: 0.3, fault.PreemptionBurst: 0.3, fault.MatrixDecay: 0.3,
		}},
		{" migflush:1 , preempt:0 ", map[fault.Kind]float64{fault.MigrationFlush: 1}},
	}
	for _, c := range cases {
		p, err := fault.ParsePlan(c.spec, 7)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		for _, k := range fault.Kinds() {
			want := c.want[k]
			if got := p.Intensity[k]; got != want {
				t.Errorf("ParsePlan(%q).Intensity[%s] = %g, want %g", c.spec, k, got, want)
			}
		}
		if p.Empty() != (len(c.want) == 0) {
			t.Errorf("ParsePlan(%q).Empty() = %v", c.spec, p.Empty())
		}
	}
	for _, bad := range []string{"bogus", "shootdown:2", "decay:-1", "scandrop:x"} {
		if _, err := fault.ParsePlan(bad, 7); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	p, err := fault.ParsePlan("shootdown:0.25,sampleloss:1", 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fault.ParsePlan(p.String(), 3)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if back.Intensity != p.Intensity {
		t.Errorf("round trip: %v != %v", back.Intensity, p.Intensity)
	}
	if got := (fault.Plan{}).String(); got != "none" {
		t.Errorf("empty plan renders %q", got)
	}
}

func TestPlanScaled(t *testing.T) {
	p, _ := fault.ParsePlan("all:0.8", 1)
	half := p.Scaled(0.5)
	for _, k := range fault.Kinds() {
		if got := half.Intensity[k]; got != 0.4 {
			t.Errorf("Scaled(0.5).Intensity[%s] = %g, want 0.4", k, got)
		}
	}
	if over := p.Scaled(10); over.Intensity[fault.ScanDrop] != 1 {
		t.Errorf("Scaled must clamp to 1, got %g", over.Intensity[fault.ScanDrop])
	}
	if !p.Scaled(0).Empty() {
		t.Error("Scaled(0) must disarm everything")
	}
}

// An empty plan must be completely inert: nil Perturber (a real nil, not
// a typed-nil interface) and an untouched detector.
func TestEmptyPlanIsInert(t *testing.T) {
	inj := fault.New(fault.Plan{}, 8)
	if p := inj.Perturber(); p != nil {
		t.Errorf("empty plan Perturber() = %#v, want nil", p)
	}
	det := comm.NewSMDetector(8, 4)
	if got := inj.WrapDetector(det); got != comm.Detector(det) {
		t.Errorf("empty plan WrapDetector changed the detector: %T", got)
	}
	if inj.Stats().Total() != 0 {
		t.Errorf("empty plan injected: %v", inj.Stats())
	}
}

// A detector-only plan must not arm an engine-side perturber, and vice
// versa.
func TestPartialArming(t *testing.T) {
	detOnly := fault.New(planFor(fault.ScanDrop, 1, 1), 8)
	if detOnly.Perturber() != nil {
		t.Error("scandrop armed an engine-side perturber")
	}
	hm := comm.NewHMDetector(8, 50_000)
	if got := detOnly.WrapDetector(hm); got == comm.Detector(hm) {
		t.Error("scandrop did not wrap the detector")
	}
	engOnly := fault.New(planFor(fault.PreemptionBurst, 1, 1), 8)
	if engOnly.Perturber() == nil {
		t.Error("preempt did not arm a perturber")
	}
	if got := engOnly.WrapDetector(hm); got != comm.Detector(hm) {
		t.Error("preempt wrapped the detector")
	}
}

// The null detector must pass through unwrapped (it has no matrix to
// corrupt).
func TestNullDetectorNotWrapped(t *testing.T) {
	inj := fault.New(planFor(fault.MatrixDecay, 1, 1), 8)
	d := comm.NullDetector{}
	if got := inj.WrapDetector(d); got != comm.Detector(d) {
		t.Errorf("null detector wrapped: %T", got)
	}
	if got := inj.WrapDetector(nil); got != nil {
		t.Errorf("nil detector wrapped: %T", got)
	}
}

// diffRun executes one adversarial differential run (all PR 2 checkers
// armed) with the given fault plan, failing the test on any violation.
// The Mixed pattern spans enough pages (private arrays + a 32-page shared
// region against a 32-entry TLB) for the SM and HM detectors to actually
// detect; ops scales the event count so low-probability scenarios fire.
func diffRun(t *testing.T, mech string, pattern check.Pattern, ops int, plan fault.Plan) *check.DiffReport {
	t.Helper()
	rep, err := check.Differential(check.DiffConfig{
		Seed:      42,
		Pattern:   pattern,
		Ops:       ops,
		Mechanism: mech,
		Faults:    plan,
	})
	if err != nil {
		t.Fatalf("differential run with faults %v: %v (violations %v)", plan, err, rep.Violations)
	}
	return rep
}

// Every scenario, armed alone at full intensity on a checker-armed
// adversarial run, must (a) actually fire and (b) leave every
// architectural invariant intact.
func TestScenariosFireAndPreserveInvariants(t *testing.T) {
	count := func(s fault.Stats, k fault.Kind) uint64 {
		switch k {
		case fault.ShootdownStorm:
			return s.Shootdowns
		case fault.MigrationFlush:
			return s.MigrationFlushes
		case fault.ScanDrop:
			return s.DroppedScans
		case fault.SampleLoss:
			return s.LostSamples
		case fault.PreemptionBurst:
			return s.Preemptions
		case fault.MatrixDecay:
			return s.CorruptedCells
		}
		return 0
	}
	// Per-scenario run shapes: the scenario needs its trigger present
	// (migrations for migflush, HM scans for scandrop, SM misses for
	// sampleloss) and enough events for its per-event rate to fire.
	shapes := map[fault.Kind]struct {
		mech    string
		pattern check.Pattern
		ops     int
	}{
		fault.ShootdownStorm:  {"SM", check.Mixed, 1500},
		fault.MigrationFlush:  {"HM", check.MigrationChurn, 400},
		fault.ScanDrop:        {"HM", check.Mixed, 400},
		fault.SampleLoss:      {"SM", check.Mixed, 400},
		fault.PreemptionBurst: {"SM", check.Mixed, 4000},
		fault.MatrixDecay:     {"SM", check.Mixed, 400},
	}
	for _, k := range fault.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			shape := shapes[k]
			rep := diffRun(t, shape.mech, shape.pattern, shape.ops, planFor(k, 1, 99))
			if got := count(rep.FaultStats, k); got == 0 {
				t.Errorf("scenario %s never fired (stats %v)", k, rep.FaultStats)
			}
		})
	}
}

// All scenarios together, full intensity, still checker-clean.
func TestAllScenariosTogether(t *testing.T) {
	plan, err := fault.ParsePlan("all:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	rep := diffRun(t, "HM", check.MigrationChurn, 800, plan)
	if rep.FaultStats.Total() == 0 {
		t.Error("nothing fired under all:1")
	}
}

// Equal (config, plan) pairs must produce bit-identical runs: same
// cycles, same published matrix, same injection counts.
func TestInjectionIsDeterministic(t *testing.T) {
	plan, _ := fault.ParsePlan("all:1", 1234)
	run := func() *check.DiffReport { return diffRun(t, "SM", check.Mixed, 600, plan) }
	a, b := run(), run()
	if a.Result.Cycles != b.Result.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Result.Cycles, b.Result.Cycles)
	}
	if a.FaultStats != b.FaultStats {
		t.Errorf("stats differ: %v vs %v", a.FaultStats, b.FaultStats)
	}
	if a.Result.Matrix.String() != b.Result.Matrix.String() {
		t.Error("published matrices differ between identical runs")
	}
	// A different seed must change the injection decisions.
	plan2 := plan
	plan2.Seed = 4321
	c := diffRun(t, "SM", check.Mixed, 600, plan2)
	if c.FaultStats == a.FaultStats && c.Result.Cycles == a.Result.Cycles {
		t.Error("changing the fault seed changed nothing")
	}
}

// SampleLoss at full intensity must blind the SM detector completely.
func TestSampleLossBlindsSM(t *testing.T) {
	clean := diffRun(t, "SM", check.Mixed, 400, fault.Plan{})
	if clean.Result.Matrix.Total() == 0 {
		t.Fatal("clean SM run detected nothing; workload too small")
	}
	blind := diffRun(t, "SM", check.Mixed, 400, planFor(fault.SampleLoss, 1, 5))
	if got := blind.Result.Matrix.Total(); got != 0 {
		t.Errorf("SM detected %d units with every trap lost", got)
	}
	if blind.FaultStats.LostSamples == 0 {
		t.Error("no samples lost")
	}
}

// ScanDrop at full intensity must erase every HM window from the
// published matrix while the clean run detects plenty.
func TestScanDropErasesHMWindows(t *testing.T) {
	clean := diffRun(t, "HM", check.Mixed, 400, fault.Plan{})
	if clean.Result.Matrix.Total() == 0 {
		t.Fatal("clean HM run detected nothing; workload too small")
	}
	dropped := diffRun(t, "HM", check.Mixed, 400, planFor(fault.ScanDrop, 1, 5))
	if got := dropped.Result.Matrix.Total(); got != 0 {
		t.Errorf("HM published %d units with every scan dropped", got)
	}
	// Dropped windows charge no detection cost.
	if dropped.Result.DetectionOverhead >= clean.Result.DetectionOverhead {
		t.Errorf("dropped scans still charged: overhead %.6f vs clean %.6f",
			dropped.Result.DetectionOverhead, clean.Result.DetectionOverhead)
	}
}

// MatrixDecay must change the published matrix relative to a clean run on
// the same workload, without touching cycle counts (it is a pure
// detection-side fault).
func TestMatrixDecayCorruptsPublishedView(t *testing.T) {
	clean := diffRun(t, "SM", check.Mixed, 400, fault.Plan{})
	decayed := diffRun(t, "SM", check.Mixed, 400, planFor(fault.MatrixDecay, 1, 5))
	if decayed.FaultStats.CorruptedCells == 0 {
		t.Fatal("no cells corrupted")
	}
	if clean.Result.Matrix.String() == decayed.Result.Matrix.String() {
		t.Error("decay left the published matrix identical")
	}
	if clean.Result.Cycles != decayed.Result.Cycles {
		t.Errorf("decay changed timing: %d vs %d cycles", clean.Result.Cycles, decayed.Result.Cycles)
	}
}

// Shootdown storms are a detection-AND-timing fault: the flushed TLBs
// must raise the miss rate relative to a clean run of the same workload.
func TestShootdownsRaiseMissRate(t *testing.T) {
	clean := diffRun(t, "SM", check.Mixed, 1500, fault.Plan{})
	faulty := diffRun(t, "SM", check.Mixed, 1500, planFor(fault.ShootdownStorm, 1, 99))
	if faulty.FaultStats.Shootdowns == 0 {
		t.Fatal("no storms fired")
	}
	if faulty.Result.TLBMissRate <= clean.Result.TLBMissRate {
		t.Errorf("storms did not raise the miss rate: %.4f vs clean %.4f",
			faulty.Result.TLBMissRate, clean.Result.TLBMissRate)
	}
}

// The faulty detector must satisfy comm.Detector and keep the inner
// detector's identity visible.
func TestWrappedDetectorForwards(t *testing.T) {
	inj := fault.New(planFor(fault.ScanDrop, 0.5, 1), 8)
	var d comm.Detector = comm.NewHMDetector(8, 50_000)
	w := inj.WrapDetector(d)
	if w.Name() != "HM" {
		t.Errorf("wrapped name = %q", w.Name())
	}
	if w.Matrix() == nil || w.Matrix().Total() != 0 {
		t.Error("fresh wrapped detector's matrix not empty")
	}
}

// The injection plumbs into a plain sim run exactly like a checker does.
func TestInjectionOnPlainSimConfig(t *testing.T) {
	inj := fault.New(planFor(fault.ShootdownStorm, 1, 3), 8)
	var cfg sim.Config
	cfg.Perturber = inj.Perturber()
	if cfg.Perturber == nil {
		t.Fatal("perturber not armed")
	}
}
