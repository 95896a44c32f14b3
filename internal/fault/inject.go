package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"tlbmap/internal/comm"
	"tlbmap/internal/runner"
	"tlbmap/internal/sim"
)

// Per-event probabilities and magnitudes at intensity 1.0. The rates are
// chosen so a fully-armed plan visibly degrades detection fidelity while
// keeping the timing perturbation bounded (full-intensity slowdown stays
// around 10%), which is what makes "confidence-gated mapping never worse
// than the OS baseline" a meaningful bound rather than a vacuous one.
const (
	// shootdownPerEvent: at intensity 1, roughly one storm per 10k
	// trace events; each storm flushes 1-3 random cores.
	shootdownPerEvent = 1e-4
	// preemptPerEvent: at intensity 1, roughly one burst per 50k trace
	// events.
	preemptPerEvent = 2e-5
	// preemptStallCycles is one burst: the core is lost for about 32
	// events' worth of work (~200 cycles each).
	preemptStallCycles = 6_400
	// decayPerCell: fraction of matrix cells corrupted per published
	// snapshot at intensity 1.
	decayPerCell = 0.25
)

// Stats counts the injections a run actually performed, per scenario.
type Stats struct {
	// Shootdowns is the number of shootdown storms (each flushes 1-3
	// cores).
	Shootdowns uint64
	// MigrationFlushes is the number of per-thread context-switch
	// flushes on migration.
	MigrationFlushes uint64
	// DroppedScans is the number of HM scan windows discarded.
	DroppedScans uint64
	// LostSamples is the number of SM sampling traps dropped.
	LostSamples uint64
	// Preemptions is the number of preemption bursts.
	Preemptions uint64
	// CorruptedCells is the number of matrix cells decayed or saturated.
	CorruptedCells uint64
}

// Total sums every injection counter.
func (s Stats) Total() uint64 {
	return s.Shootdowns + s.MigrationFlushes + s.DroppedScans +
		s.LostSamples + s.Preemptions + s.CorruptedCells
}

// String renders the non-zero counters compactly.
func (s Stats) String() string {
	var parts []string
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"shootdowns", s.Shootdowns},
		{"migflushes", s.MigrationFlushes},
		{"dropped-scans", s.DroppedScans},
		{"lost-samples", s.LostSamples},
		{"preemptions", s.Preemptions},
		{"corrupted-cells", s.CorruptedCells},
	} {
		if c.n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.name, c.n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Injection is a plan armed on one run: it implements sim.Perturber for
// the engine-side scenarios and wraps the run's detector for the
// detector-side ones. Build one Injection per run (it is single-run,
// single-goroutine state, like a Checker).
type Injection struct {
	plan Plan
	n    int // cores/threads
	env  sim.CheckEnv

	// Independent per-scenario RNG streams: arming or re-rating one
	// scenario must not perturb another's decision sequence.
	rng [numKinds]*rand.Rand

	stats Stats
}

// New arms a plan for a run on n cores. An empty plan yields an Injection
// whose Perturber() is nil and whose WrapDetector() is the identity, so
// the rate-0 cost is exactly the engine's disarmed-hook cost.
func New(plan Plan, n int) *Injection {
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	inj := &Injection{plan: plan, n: n}
	for k := range inj.rng {
		if plan.Intensity[k] > 0 {
			inj.rng[k] = rand.New(rand.NewSource(runner.Seed(plan.Seed, "fault", Kind(k).String())))
		}
	}
	return inj
}

// Stats returns the injection counts so far.
func (inj *Injection) Stats() Stats { return inj.stats }

// engineArmed reports whether any sim.Perturber-side scenario is active.
func (inj *Injection) engineArmed() bool {
	return inj.rng[ShootdownStorm] != nil || inj.rng[MigrationFlush] != nil ||
		inj.rng[PreemptionBurst] != nil
}

// detectorArmed reports whether any detector-side scenario is active.
func (inj *Injection) detectorArmed() bool {
	return inj.rng[ScanDrop] != nil || inj.rng[SampleLoss] != nil ||
		inj.rng[MatrixDecay] != nil
}

// Perturber returns the sim.Perturber to arm on the run, or nil when no
// engine-side scenario is active. The explicit nil matters: handing the
// engine a typed-nil interface would defeat its disarmed fast path.
func (inj *Injection) Perturber() sim.Perturber {
	if inj == nil || !inj.engineArmed() {
		return nil
	}
	return inj
}

// Begin implements sim.Perturber.
func (inj *Injection) Begin(env sim.CheckEnv) { inj.env = env }

// OnQuantum implements sim.Perturber: shootdown storms and preemption
// bursts fire here, each from its own RNG stream. The per-event rates are
// expanded over the quantum's event count (one independent draw per
// event), so a scenario's expected firing frequency is the same as if it
// were sampled on every event — the hook is merely delivered at the
// scheduling-tick granularity real storms and preemptions arrive at.
func (inj *Injection) OnQuantum(now uint64, thread int, events int) uint64 {
	if rng := inj.rng[ShootdownStorm]; rng != nil {
		p := inj.plan.Intensity[ShootdownStorm] * shootdownPerEvent
		for e := 0; e < events; e++ {
			if rng.Float64() < p {
				inj.stats.Shootdowns++
				for i, k := 0, 1+rng.Intn(3); i < k; i++ {
					inj.env.TLBs[rng.Intn(inj.n)].Flush()
				}
			}
		}
	}
	var stall uint64
	if rng := inj.rng[PreemptionBurst]; rng != nil {
		p := inj.plan.Intensity[PreemptionBurst] * preemptPerEvent
		for e := 0; e < events; e++ {
			if rng.Float64() < p {
				inj.stats.Preemptions++
				stall += preemptStallCycles
			}
		}
	}
	return stall
}

// OnMigration implements sim.Perturber: with probability equal to the
// MigrationFlush intensity, each migrated thread's destination core loses
// its TLB contents (the view was already rebuilt, so Placement[th] is the
// core the thread continues on).
func (inj *Injection) OnMigration(now uint64, moved []int) {
	rng := inj.rng[MigrationFlush]
	if rng == nil {
		return
	}
	for _, th := range moved {
		if rng.Float64() < inj.plan.Intensity[MigrationFlush] {
			inj.stats.MigrationFlushes++
			inj.env.TLBs[inj.env.Placement[th]].Flush()
		}
	}
}

var _ sim.Perturber = (*Injection)(nil)
var _ comm.Detector = (*faultyDetector)(nil)
