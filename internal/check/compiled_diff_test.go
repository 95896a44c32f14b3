package check

import (
	"reflect"
	"testing"

	"tlbmap/internal/fault"
	"tlbmap/internal/topology"
)

// faultPlan parses a fault spec or fails the test.
func faultPlan(t *testing.T, spec string, seed int64) fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedCompiledMatchSerial is the differential equivalence matrix of
// the compile-and-replay engine: for every (pattern, mechanism, topology,
// faults) cell, the goroutine run is the reference and the compiled
// replay's full Result — cycles, per-core counters, matrices, placements —
// must match it exactly. The invariant suite stays armed throughout, so a
// replay that corrupted architectural state would also fail its own run,
// not just the comparison.
func TestShardedCompiledMatchSerial(t *testing.T) {
	type cell struct {
		name string
		cfg  DiffConfig
	}
	cells := []cell{
		{"hot-SM-UMA", DiffConfig{Seed: 11, Pattern: HotSharing, Mechanism: "SM", Ops: 250}},
		{"false-HM-NUMA", DiffConfig{Seed: 12, Pattern: FalseSharing, Mechanism: "HM",
			Machine: topology.NUMA(2), Ops: 250}},
		{"churn-null-UMA", DiffConfig{Seed: 13, Pattern: MigrationChurn, Ops: 250}},
		{"mixed-HM-STLB-UMA", DiffConfig{Seed: 14, Pattern: Mixed, Mechanism: "HM", STLB: true, Ops: 200}},
		{"private-SM-NUMA", DiffConfig{Seed: 15, Pattern: PrivateStreams, Mechanism: "SM",
			Machine: topology.NUMA(4), Ops: 250}},
		{"hot-HM-faults", DiffConfig{Seed: 16, Pattern: HotSharing, Mechanism: "HM", Ops: 200,
			Faults: faultPlan(t, "shootdown:0.4,preempt:0.4", 16)}},
	}
	if testing.Short() {
		cells = cells[:3]
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			base, err := Differential(c.cfg)
			if err != nil {
				t.Fatalf("goroutine reference: %v (violations %v)", err, base.Violations)
			}
			cfg := c.cfg
			cfg.Compiled = true
			rep, err := Differential(cfg)
			if err != nil {
				t.Fatalf("compiled: %v (violations %v)", err, rep.Violations)
			}
			if !reflect.DeepEqual(base.Result, rep.Result) {
				t.Errorf("compiled Result diverged from the goroutine engine\ngoroutine: %+v\ncompiled:  %+v",
					base.Result, rep.Result)
			}
		})
	}
}

// The 256-core manycore cell runs at the sim level without the armed
// suite (whose per-access oracle is quadratic in cores at this scale):
// see TestShardWorkerInvarianceManycore in internal/sim.
