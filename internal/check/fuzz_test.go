package check

import (
	"testing"

	"tlbmap/internal/topology"
)

// FuzzEngineVsOracle fuzzes the full engine against the invariant suite:
// the fuzzer picks a seed, pattern, operation count, detection mechanism
// and topology; the differential tester generates the corresponding
// adversarial workload and runs it with the sequential oracle, the MESI
// legality checker, the TLB consistency checker and the conservation
// checker all armed. Any reported violation is a crash.
//
// All parameters are int64 so the committed corpus under
// testdata/fuzz/FuzzEngineVsOracle stays hand-writable.
func FuzzEngineVsOracle(f *testing.F) {
	// One seed per pattern, plus mechanism and topology variants.
	f.Add(int64(1), int64(0), int64(300), int64(0), int64(0))
	f.Add(int64(2), int64(1), int64(400), int64(1), int64(0))
	f.Add(int64(3), int64(2), int64(500), int64(0), int64(1))
	f.Add(int64(4), int64(3), int64(300), int64(2), int64(2))
	f.Add(int64(5), int64(4), int64(600), int64(2), int64(0))
	f.Fuzz(func(t *testing.T, seed, pattern, ops, mech, topo int64) {
		patterns := Patterns()
		cfg := DiffConfig{
			Seed:    seed,
			Pattern: patterns[abs(pattern)%int64(len(patterns))],
			// Cap the workload so one input stays sub-second.
			Ops: 50 + int(abs(ops)%350),
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
		rep, err := Differential(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v (violations: %v)", cfg, err, rep.Violations)
		}
	})
}

func abs(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 0
		}
		return -v
	}
	return v
}
