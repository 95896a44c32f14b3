package check

import (
	"fmt"
	"math/rand"

	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/sim"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// Pattern names an adversarial access pattern of the differential tester.
// Each pattern stresses a different failure mode of the engine.
type Pattern string

// The built-in adversarial patterns.
const (
	// HotSharing: every thread hammers a handful of shared lines with a
	// high store ratio — maximum invalidation and ownership migration
	// pressure on the MESI protocol.
	HotSharing Pattern = "hot-sharing"
	// FalseSharing: threads write disjoint words that share cache lines
	// and pages — the page-level false-communication case of the paper,
	// and the densest source of silent-staleness bugs.
	FalseSharing Pattern = "false-sharing"
	// MigrationChurn: a random workload under a migrator that keeps
	// shuffling the thread placement — cold TLBs/caches, view rebuilds,
	// and cross-domain ownership on every epoch.
	MigrationChurn Pattern = "migration-churn"
	// PrivateStreams: mostly-private streaming over arrays larger than
	// the TLB reach, with rare shared flushes — eviction and write-back
	// pressure rather than coherence pressure.
	PrivateStreams Pattern = "private-streams"
	// Mixed: all of the above in one run, phase by phase.
	Mixed Pattern = "mixed"
)

// Patterns returns every built-in pattern, in a stable order.
func Patterns() []Pattern {
	return []Pattern{HotSharing, FalseSharing, MigrationChurn, PrivateStreams, Mixed}
}

// DiffConfig parameterizes one differential run. The seed is the only
// source of randomness: equal configs produce bit-identical runs.
type DiffConfig struct {
	// Seed drives workload generation and the migration churn.
	Seed int64
	// Pattern selects the adversarial access pattern (default HotSharing).
	Pattern Pattern
	// Machine is the topology under test; nil selects Harpertown.
	Machine *topology.Machine
	// Ops is the per-thread operation count per round (4 rounds are run,
	// separated by barriers); 0 selects 600.
	Ops int
	// Mechanism arms a live detector during the run: "SM" (on
	// software-managed TLBs), "HM", or "" for none. Detection changes
	// the timing and the TLB-view traffic but must never change what
	// values loads observe.
	Mechanism string
	// STLB adds the Nehalem second-level TLB (hardware-managed runs
	// only), covering the two-level refill path.
	STLB bool
	// Faults, when non-empty, arms the fault-injection layer on the run:
	// the adversarial workload executes under injected TLB shootdowns,
	// migration flushes, dropped scans, lost samples, preemption bursts
	// and matrix corruption — and the invariant suite must STILL hold,
	// proving faults perturb detection fidelity only, never
	// architectural state.
	Faults fault.Plan
}

// DiffReport carries the outcome of one differential run.
type DiffReport struct {
	Pattern    Pattern
	Seed       int64
	Result     *sim.Result
	Violations []Violation
	// FaultStats counts the injections performed when Faults was armed.
	FaultStats fault.Stats
}

// Differential generates the configured adversarial workload, runs the
// full engine with all four checkers armed, and cross-checks the final
// memory image against the sequential oracle. It returns an error — with
// the report still populated — if any invariant was violated.
func Differential(cfg DiffConfig) (*DiffReport, error) {
	if cfg.Machine == nil {
		cfg.Machine = topology.Harpertown()
	}
	if cfg.Pattern == "" {
		cfg.Pattern = HotSharing
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 600
	}
	n := cfg.Machine.NumCores()

	as := vm.NewAddressSpace()
	team := buildWorkload(cfg, as, n)

	suite := NewSuite()
	simCfg := sim.Config{
		Machine: cfg.Machine,
		Checker: suite,
		// Small structures migrate lines and TLB entries through every
		// state quickly; tiny caches maximize eviction coverage.
		TLB: tlb.Config{Entries: 32, Ways: 4},
	}
	var det comm.Detector
	switch cfg.Mechanism {
	case "SM":
		det = comm.NewSMDetector(n, 4)
		simCfg.TLBMode = tlb.SoftwareManaged
	case "HM":
		det = comm.NewHMDetector(n, 50_000)
		simCfg.TLBMode = tlb.HardwareManaged
	case "":
		// No detector.
	default:
		return nil, fmt.Errorf("check: unknown mechanism %q", cfg.Mechanism)
	}
	inj := fault.New(cfg.Faults, n)
	simCfg.Perturber = inj.Perturber()
	simCfg.Detector = inj.WrapDetector(det)
	if cfg.STLB && simCfg.TLBMode == tlb.HardwareManaged {
		simCfg.TLB2 = tlb.DefaultL2Config
	}
	if cfg.Pattern == MigrationChurn || cfg.Pattern == Mixed {
		mig := rand.New(rand.NewSource(cfg.Seed ^ 0x6d696772)) // "migr"
		simCfg.MigrationInterval = 20_000
		simCfg.Migrator = func(now uint64, placement []int) []int {
			if mig.Intn(3) == 0 {
				return nil // let some epochs pass unchanged
			}
			next := append([]int(nil), placement...)
			mig.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
			return next
		}
	}

	res, err := sim.Run(simCfg, as, team)
	rep := &DiffReport{
		Pattern:    cfg.Pattern,
		Seed:       cfg.Seed,
		Result:     res,
		Violations: suite.Violations(),
		FaultStats: inj.Stats(),
	}
	if err != nil {
		return rep, err
	}
	return rep, suite.Err()
}

// buildWorkload allocates the pattern's data structures and spawns the
// thread team. All randomness derives from (cfg.Seed, thread ID), so the
// trace is independent of scheduling.
func buildWorkload(cfg DiffConfig, as *vm.AddressSpace, n int) *trace.Team {
	// Shared structures, sized to stress both the 32-entry TLB and the
	// cache sets: a few hot lines, a false-sharing strip with one word
	// per thread per line, and a large shared region spanning many pages.
	hot := trace.NewF64(as, 16)
	strip := trace.NewF64(as, 64*n)
	big := trace.NewF64(as, 16*1024)
	private := make([]*trace.F64, n)
	for i := range private {
		private[i] = trace.NewF64(as, 8*1024)
	}

	phase := func(t *trace.Thread, rng *rand.Rand, p Pattern, ops int) {
		id := t.ID()
		for op := 0; op < ops; op++ {
			switch p {
			case HotSharing:
				i := rng.Intn(hot.Len())
				if rng.Intn(2) == 0 {
					hot.Add(t, i, 1) // load + store
				} else {
					hot.Get(t, i)
				}
			case FalseSharing:
				// Thread id owns word id of every 8-word (64-byte) line:
				// disjoint data, shared lines and pages.
				line := rng.Intn(strip.Len() / 8)
				idx := line*8 + id%8
				strip.Add(t, idx, 1)
			case MigrationChurn:
				// A spatially spread mix so migrated threads re-touch
				// lines owned by the cores they left.
				if rng.Intn(3) == 0 {
					big.Add(t, rng.Intn(big.Len()), 1)
				} else {
					private[id].Add(t, rng.Intn(private[id].Len()), 1)
				}
			case PrivateStreams:
				stride := 1 + rng.Intn(512)
				private[id].Add(t, (op*stride)%private[id].Len(), 1)
				if rng.Intn(64) == 0 {
					big.Add(t, rng.Intn(big.Len()), 1)
				}
			}
			if rng.Intn(16) == 0 {
				t.Compute(uint64(1 + rng.Intn(200)))
			}
		}
	}

	return trace.SPMD(n, func(t *trace.Thread) {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(t.ID())))
		patterns := []Pattern{cfg.Pattern, cfg.Pattern, cfg.Pattern, cfg.Pattern}
		if cfg.Pattern == Mixed {
			patterns = []Pattern{HotSharing, FalseSharing, MigrationChurn, PrivateStreams}
		}
		for _, p := range patterns {
			phase(t, rng, p, cfg.Ops)
			t.Barrier()
		}
	}, 64)
}
