package check

import (
	"testing"

	"tlbmap/internal/fault"
	"tlbmap/internal/topology"
)

// FuzzEngineVsOracleFaults is FuzzEngineVsOracle with the fault-injection
// layer in the loop: two extra parameters pick which scenarios to arm
// (faultMask, one bit per fault.Kind) and the injection seed. The
// invariant suite must hold no matter which faults fire — any violation
// under injected faults means a fault leaked into architectural state.
//
// This is a separate fuzz target (rather than new parameters on
// FuzzEngineVsOracle) so the original committed corpus keeps its arity.
func FuzzEngineVsOracleFaults(f *testing.F) {
	// One seed per scenario, the all-armed case, and a mixed subset.
	f.Add(int64(1), int64(0), int64(300), int64(1), int64(0), int64(1), int64(11))  // shootdown, SM
	f.Add(int64(2), int64(2), int64(400), int64(2), int64(1), int64(2), int64(12))  // migflush, HM, NUMA
	f.Add(int64(3), int64(1), int64(300), int64(2), int64(0), int64(4), int64(13))  // scandrop, HM
	f.Add(int64(4), int64(3), int64(300), int64(1), int64(0), int64(8), int64(14))  // sampleloss, SM
	f.Add(int64(5), int64(2), int64(400), int64(0), int64(2), int64(16), int64(15)) // preempt
	f.Add(int64(6), int64(0), int64(300), int64(1), int64(0), int64(32), int64(16)) // decay, SM
	f.Add(int64(7), int64(4), int64(500), int64(2), int64(1), int64(63), int64(17)) // everything
	f.Fuzz(func(t *testing.T, seed, pattern, ops, mech, topo, faultMask, faultSeed int64) {
		patterns := Patterns()
		cfg := DiffConfig{
			Seed:    seed,
			Pattern: patterns[abs(pattern)%int64(len(patterns))],
			Ops:     50 + int(abs(ops)%350),
		}
		switch abs(mech) % 3 {
		case 1:
			cfg.Mechanism = "SM"
		case 2:
			cfg.Mechanism = "HM"
		}
		switch abs(topo) % 3 {
		case 1:
			cfg.Machine = topology.NUMA(2)
		case 2:
			cfg.Machine = topology.NUMA(4)
		}
		cfg.Faults.Seed = faultSeed
		mask := abs(faultMask)
		for _, k := range fault.Kinds() {
			if mask&(1<<uint(k)) != 0 {
				cfg.Faults.Intensity[k] = 1
			}
		}
		rep, err := Differential(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v (violations: %v, faults: %v)",
				cfg, err, rep.Violations, rep.FaultStats)
		}
	})
}
