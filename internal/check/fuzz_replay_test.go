package check

import (
	"reflect"
	"testing"

	"tlbmap/internal/topology"
)

// FuzzReplayVsSerial fuzzes the execution-path equivalence of the
// compile-and-replay engine: every input runs the same differential
// configuration on the goroutine engine (reference) and through compiled
// replay, and requires bit-identical Results. The invariant suite stays
// armed on both runs, so a divergence is caught both by the
// cross-comparison and by the run's own oracles.
//
// The parameters mirror FuzzEngineVsOracle (the committed corpus there
// seeds this target's corpus).
func FuzzReplayVsSerial(f *testing.F) {
	f.Add(int64(1), int64(0), int64(200), int64(0), int64(0))
	f.Add(int64(2), int64(1), int64(250), int64(1), int64(0))
	f.Add(int64(3), int64(2), int64(200), int64(0), int64(1))
	f.Add(int64(4), int64(3), int64(150), int64(2), int64(2))
	f.Add(int64(5), int64(4), int64(250), int64(2), int64(0))
	f.Fuzz(func(t *testing.T, seed, pattern, ops, mech, topo int64) {
		patterns := Patterns()
		cfg := DiffConfig{
			Seed:    seed,
			Pattern: patterns[abs(pattern)%int64(len(patterns))],
			// Smaller cap than FuzzEngineVsOracle: each input runs the
			// workload twice.
			Ops: 50 + int(abs(ops)%200),
		}
		switch abs(mech) % 3 {
		case 1:
			cfg.Mechanism = "SM"
		case 2:
			cfg.Mechanism = "HM"
			cfg.STLB = seed%2 == 0
		}
		switch abs(topo) % 3 {
		case 1:
			cfg.Machine = topology.NUMA(2)
		case 2:
			cfg.Machine = topology.NUMA(4)
		}
		base, err := Differential(cfg)
		if err != nil {
			t.Fatalf("goroutine: config %+v: %v (violations: %v)", cfg, err, base.Violations)
		}
		cfg.Compiled = true
		rep, err := Differential(cfg)
		if err != nil {
			t.Fatalf("compiled: config %+v: %v (violations: %v)", cfg, err, rep.Violations)
		}
		if !reflect.DeepEqual(base.Result, rep.Result) {
			t.Errorf("compiled Result diverged from the goroutine engine\ngoroutine: %+v\ncompiled:  %+v",
				base.Result, rep.Result)
		}
	})
}
