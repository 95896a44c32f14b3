// Package check is the runtime invariant-checking and differential-testing
// layer of the simulator. It keeps the fast trace-driven engine honest by
// independently validating, during a run, everything the reproduction's
// numbers rest on:
//
//   - a flat sequential memory ORACLE (oracle.go) models the value of every
//     cache line as a store sequence number and flags any load served from a
//     copy that missed an invalidation — the classic model-based check for a
//     MESI hierarchy;
//   - a MESI LEGALITY checker (mesi.go) maintains a shadow copy table and
//     enforces the global per-line protocol invariants (a Modified or
//     Exclusive holder is alone; L1 copies respect L2 inclusion; the shadow
//     matches the real caches at the end of the run);
//   - a TLB/PAGE-TABLE consistency checker (tlbcheck.go) verifies that every
//     TLB entry maps a page the VM layer actually allocated to the frame the
//     page table records, and that the detector-facing TLB view always
//     mirrors the physical per-core TLBs (also across thread migrations);
//   - a METRICS CONSERVATION checker (conserve.go) proves the counter
//     arithmetic: per-level lookups equal accesses, per-core banks sum to
//     the machine-wide bank, snoop and NUMA traffic splits add up.
//
// A Suite bundles all four. It plugs into the engine via sim.Config.Checker
// and into the memory hierarchy via mem.Observer; with no suite armed both
// hook layers cost one nil comparison per event. Any violation aborts the
// run with a descriptive error.
//
// On top of the suite, Differential (differential.go) generates seeded
// adversarial multi-thread workloads — hot sharing, false sharing, migration
// churn — and runs the full engine with every checker armed, cross-checking
// the final memory image against the oracle. The same entry point backs the
// table-driven tests and the FuzzEngineVsOracle fuzz target.
package check

import (
	"fmt"
	"strings"

	"tlbmap/internal/sim"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// maxViolations bounds how many violations a suite records verbatim;
// further ones only bump the counter. The first violation is almost always
// the root cause, so an unbounded log would just bury it.
const maxViolations = 32

// Violation is one detected invariant breach.
type Violation struct {
	// Checker names the sub-checker that fired: "oracle", "mesi", "tlb"
	// or "conservation".
	Checker string
	// Msg describes the breach with enough context to debug it.
	Msg string
}

func (v Violation) String() string { return v.Checker + ": " + v.Msg }

// Suite bundles the four runtime checkers behind the engine's sim.Checker
// and the hierarchy's mem.Observer interfaces. A Suite observes exactly one
// run and is not safe for concurrent use; arm a fresh Suite per run.
type Suite struct {
	env   sim.CheckEnv
	begun bool

	oracle   *oracle
	mesi     *mesiChecker
	tlbc     *tlbChecker
	conserve *conserveChecker

	violations []Violation
	dropped    int // violations beyond maxViolations
}

// NewSuite returns a suite with all four checkers armed. Pass it as
// sim.Config.Checker (or set core.Options.Check, which does so for you).
func NewSuite() *Suite {
	s := &Suite{}
	s.oracle = &oracle{s: s}
	s.mesi = &mesiChecker{s: s}
	s.tlbc = &tlbChecker{s: s}
	s.conserve = &conserveChecker{s: s}
	return s
}

// reportf records a violation.
func (s *Suite) reportf(checker, format string, args ...any) {
	if len(s.violations) >= maxViolations {
		s.dropped++
		return
	}
	s.violations = append(s.violations, Violation{Checker: checker, Msg: fmt.Sprintf(format, args...)})
}

// Violations returns everything recorded so far (capped at an internal
// limit; Err reports how many more were dropped).
func (s *Suite) Violations() []Violation { return s.violations }

// Err summarizes the recorded violations as an error, or nil if the run is
// clean so far.
func (s *Suite) Err() error {
	if len(s.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s)", len(s.violations)+s.dropped)
	show := len(s.violations)
	if show > 3 {
		show = 3
	}
	for i := 0; i < show; i++ {
		b.WriteString("; ")
		b.WriteString(s.violations[i].String())
	}
	if len(s.violations)+s.dropped > show {
		fmt.Fprintf(&b, "; ... (%d more)", len(s.violations)+s.dropped-show)
	}
	return fmt.Errorf("check: %s", b.String())
}

// Begin implements sim.Checker.
func (s *Suite) Begin(env sim.CheckEnv) {
	s.env = env
	s.begun = true
	n := env.Machine.NumCores()
	s.oracle.init(n, env.System.NumDomains())
	s.mesi.init(n, env.System.NumDomains())
	s.tlbc.init(env)
	s.conserve.init(n)
}

// OnAccess implements sim.Checker: per-access bookkeeping plus fail-fast on
// any violation the hierarchy observer recorded during the access.
func (s *Suite) OnAccess(thread, core int, ev trace.Event, frame vm.Frame) error {
	s.conserve.onAccess(core)
	s.tlbc.onAccess(thread, core, ev, frame)
	return s.Err()
}

// OnMigration implements sim.Checker.
func (s *Suite) OnMigration(now uint64, placement []int) error {
	s.tlbc.onMigration(placement)
	return s.Err()
}

// Finish implements sim.Checker: whole-run sweeps (shadow-versus-actual
// cache contents, final memory image, counter conservation).
func (s *Suite) Finish(res *sim.Result) error {
	s.tlbc.sweep()
	s.mesi.finish()
	s.oracle.finish()
	s.conserve.finish(res)
	return s.Err()
}
