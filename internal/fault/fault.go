// Package fault is the seeded, deterministic fault-injection layer: it
// systematically disturbs the TLB window the paper's detectors read, to
// measure how detection quality and mapping gain degrade when the clean
// simulation assumptions break — TLB shootdowns, context-switch flushes,
// missed HM scan windows, lost SM sampling traps, scheduler preemption,
// and communication-matrix corruption.
//
// The layer plugs into the hook surfaces the checker subsystem introduced:
// engine-side scenarios implement sim.Perturber (armed via
// sim.Config.Perturber), detector-side scenarios wrap a comm.Detector.
// The central contract mirrors the Perturber contract: faults perturb
// microarchitectural/timing state and detection fidelity only, never
// architectural state — a run with every injector armed still passes the
// full internal/check invariant suite.
//
// Determinism: every scenario draws from its own RNG stream derived from
// the plan seed and the scenario's name (runner.Seed), so arming or
// re-rating one scenario never changes another scenario's decisions, and
// equal (config, plan) pairs produce bit-identical runs.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the fault scenarios.
type Kind int

const (
	// ShootdownStorm flushes random cores' TLBs mid-epoch, modelling
	// bursts of OS-initiated TLB shootdowns (munmap/mprotect IPIs) that
	// empty the window the detectors read.
	ShootdownStorm Kind = iota
	// MigrationFlush flushes the destination core's TLB when a thread
	// migrates, modelling context switches on architectures without
	// tagged TLBs (no ASIDs): the migrated thread restarts cold and the
	// detector loses the core's history.
	MigrationFlush
	// ScanDrop discards whole HM scan windows: the periodic scan runs
	// (TLBs were read) but its result is lost — a missed scheduler
	// window, an interrupted scan. The dropped window's matrix
	// contribution vanishes and no detection cost is charged.
	ScanDrop
	// SampleLoss drops SM sampling traps: a TLB miss that should have
	// entered the Figure 1a search path never reaches the detector
	// (trap coalescing, interrupt masking). The refill still happens.
	SampleLoss
	// PreemptionBurst stalls the issuing thread's core for a burst of
	// cycles, modelling a co-runner or kernel thread stealing the core:
	// the thread's clock jumps while every other thread progresses.
	PreemptionBurst
	// MatrixDecay corrupts the published communication matrix: random
	// cells lose high-order bits (decay) or saturate (stuck-at-max),
	// modelling storage corruption and counter overflow in the
	// OS-maintained matrix.
	MatrixDecay

	numKinds int = iota
)

// kindNames are the CLI-facing scenario names, in Kind order.
var kindNames = [numKinds]string{
	"shootdown", "migflush", "scandrop", "sampleloss", "preempt", "decay",
}

// String returns the scenario's CLI name.
func (k Kind) String() string {
	if k < 0 || int(k) >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns every scenario, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind resolves a CLI scenario name.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown scenario %q (have %s)", name, strings.Join(kindNames[:], ", "))
}

// Plan is the fault configuration of one run: which scenarios are armed,
// at what intensity, under which seed. The zero value injects nothing.
type Plan struct {
	// Seed is the base of every scenario's RNG stream. Zero selects 1 so
	// an armed plan is always reproducible.
	Seed int64
	// Intensity holds each scenario's rate in [0, 1], indexed by Kind.
	// Zero disarms the scenario; 1 is the scenario's maximum rate
	// (documented per Kind in inject.go's rate constants).
	Intensity [numKinds]float64
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	for _, r := range p.Intensity {
		if r > 0 {
			return false
		}
	}
	return true
}

// Scaled returns a copy of the plan with every armed intensity multiplied
// by f (clamped to [0, 1]) — the knob the degradation study sweeps.
func (p Plan) Scaled(f float64) Plan {
	out := p
	for i, r := range out.Intensity {
		r *= f
		if r < 0 {
			r = 0
		}
		if r > 1 {
			r = 1
		}
		out.Intensity[i] = r
	}
	return out
}

// String renders the plan in the spec syntax ParsePlan accepts.
func (p Plan) String() string {
	var parts []string
	for i, r := range p.Intensity {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("%s:%g", Kind(i), r))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// DefaultIntensity is the rate a scenario named without an explicit
// ":rate" is armed at.
const DefaultIntensity = 0.5

// ParsePlan parses a CLI fault spec into a plan. The spec is a
// comma-separated list of scenario[:rate] entries; "all" arms every
// scenario. An empty spec yields the empty plan.
//
//	"shootdown"              one scenario at the default 0.5
//	"scandrop:0.8,decay:0.2" two scenarios at explicit rates
//	"all:0.3"                every scenario at 0.3
func ParsePlan(spec string, seed int64) (Plan, error) {
	p := Plan{Seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rateStr, hasRate := strings.Cut(entry, ":")
		rate := DefaultIntensity
		if hasRate {
			var err error
			rate, err = strconv.ParseFloat(rateStr, 64)
			if err != nil || rate < 0 || rate > 1 {
				return Plan{}, fmt.Errorf("fault: bad rate %q in %q (want a number in [0,1])", rateStr, entry)
			}
		}
		if name == "all" {
			for i := range p.Intensity {
				p.Intensity[i] = rate
			}
			continue
		}
		k, err := ParseKind(name)
		if err != nil {
			return Plan{}, err
		}
		p.Intensity[k] = rate
	}
	return p, nil
}
