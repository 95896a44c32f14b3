package core

import (
	"errors"
	"strings"
	"testing"

	"tlbmap/internal/check"
	"tlbmap/internal/fault"
	"tlbmap/internal/sim"
	"tlbmap/internal/topology"
)

func planWith(seed int64, kinds ...fault.Kind) fault.Plan {
	p := fault.Plan{Seed: seed}
	for _, k := range kinds {
		p.Intensity[k] = 1
	}
	return p
}

// Total sample loss must blind SM detection end-to-end through the façade:
// the stats count the lost traps and the published matrix is empty.
func TestDetectWithFaultsCountsInjections(t *testing.T) {
	opt := Options{SampleEvery: 1, Faults: planWith(7, fault.SampleLoss)}
	det, err := Detect(tinyWorkload, SM, opt)
	if err != nil {
		t.Fatal(err)
	}
	if det.FaultStats.LostSamples == 0 {
		t.Fatal("no samples lost at intensity 1")
	}
	if det.Matrix.Total() != 0 {
		t.Errorf("matrix total = %d under total sample loss, want 0", det.Matrix.Total())
	}
	// A clean control run must report zero injections.
	clean, err := Detect(tinyWorkload, SM, Options{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.FaultStats.Total() != 0 {
		t.Errorf("clean run reported injections: %v", clean.FaultStats)
	}
	if clean.Matrix.Total() == 0 {
		t.Error("clean run detected nothing; test premise broken")
	}
}

// Same workload, same plan, same seed: bit-identical run and stats.
func TestFaultedDetectIsDeterministic(t *testing.T) {
	opt := Options{ScanInterval: 5_000, Faults: planWith(11, fault.ShootdownStorm, fault.ScanDrop)}
	a, err := Detect(tinyWorkload, HM, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Detect(tinyWorkload, HM, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cycles != b.Result.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Result.Cycles, b.Result.Cycles)
	}
	if a.FaultStats != b.FaultStats {
		t.Errorf("stats differ: %v vs %v", a.FaultStats, b.FaultStats)
	}
	if a.Matrix.String() != b.Matrix.String() {
		t.Error("matrices differ between identical faulted runs")
	}
}

// A closed Interrupt channel must cancel the run promptly with the typed
// error — the hook the CLIs wire Ctrl-C into.
func TestInterruptCancelsDetect(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	_, err := Detect(tinyWorkload, HM, Options{Interrupt: ch})
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want sim.ErrInterrupted", err)
	}
}

// The dynamic-migration pipeline must survive every scenario firing at
// once: bookkeeping stays coherent and the fault layer reports what it did.
func TestDynamicMigrationSurvivesAllFaults(t *testing.T) {
	plan, err := fault.ParsePlan("all:1", 3)
	if err != nil {
		t.Fatal(err)
	}
	report, err := EvaluateWithDynamicMigration(twoPhaseWorkload, HM,
		Options{MigrationInterval: 200_000, ScanInterval: 5_000, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if report.FaultStats.Total() == 0 {
		t.Error("no injections recorded with every scenario armed")
	}
	if report.FinalConfidence < 0 || report.FinalConfidence > 1 {
		t.Errorf("final confidence %.3f out of [0,1]", report.FinalConfidence)
	}
	moved := 0
	for _, d := range report.Decisions {
		if d.Remap {
			moved += d.Migrations
		}
	}
	if moved != report.Result.Migrations {
		t.Errorf("decision migrations %d != engine migrations %d", moved, report.Result.Migrations)
	}
}

// Heavy matrix corruption must engage the confidence gate: the controller
// reports low-confidence decisions instead of chasing the corrupted
// pattern. (mapping's confidence tests cover the disabled gate,
// MinConfidence = 0.)
func TestDynamicMigrationConfidenceGateUnderDecay(t *testing.T) {
	opt := Options{MigrationInterval: 150_000, Faults: planWith(5, fault.MatrixDecay)}
	report, err := EvaluateWithDynamicMigration(twoPhaseWorkload, Oracle, opt)
	if err != nil {
		t.Fatal(err)
	}
	var gated bool
	for _, d := range report.Decisions {
		if strings.Contains(d.Reason, "low confidence") {
			gated = true
			break
		}
	}
	if !gated {
		t.Errorf("gate never engaged under total matrix decay (final confidence %.3f, decisions %d)",
			report.FinalConfidence, len(report.Decisions))
	}
}

// EvaluateNUMA takes Interrupt from Options like every other run.
func TestInterruptCancelsEvaluateNUMA(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	_, err := EvaluateNUMA(nodeLocalWorkload, nil, nil, Options{Machine: topology.NUMA(2), Interrupt: ch})
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want sim.ErrInterrupted", err)
	}
}

// countingSuite is the invariant suite with a count of the hooks the
// engine called.
type countingSuite struct {
	*check.Suite
	begins, migrations int
}

func (s *countingSuite) Begin(env sim.CheckEnv) {
	s.begins++
	s.Suite.Begin(env)
}

func (s *countingSuite) OnMigration(now uint64, placement []int) error {
	s.migrations++
	return s.Suite.OnMigration(now, placement)
}

// Options.Check arms the suite on a dynamically migrated run too, and the
// suite checks every migration the controller makes.
func TestCheckedDynamicMigrationArmsSuite(t *testing.T) {
	suite := &countingSuite{Suite: check.NewSuite()}
	defer func(orig func() sim.Checker) { newSuite = orig }(newSuite)
	newSuite = func() sim.Checker { return suite }
	report, err := EvaluateWithDynamicMigration(twoPhaseWorkload, Oracle,
		Options{MigrationInterval: 200_000, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if suite.begins != 1 {
		t.Fatalf("checked run began the suite %d times, want 1", suite.begins)
	}
	if report.Remaps == 0 || suite.migrations != report.Remaps {
		t.Errorf("suite checked %d migrations, controller remapped %d times", suite.migrations, report.Remaps)
	}
}
