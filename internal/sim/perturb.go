package sim

import "errors"

// ErrInterrupted is returned by Run when Config.Interrupt fires before the
// run completes. Callers that wire the channel to a context (the hardened
// runner's per-job timeout, Ctrl-C in the CLIs) should treat it as a
// cancellation, not a simulation failure.
var ErrInterrupted = errors.New("sim: run interrupted")

// Perturber is the engine-side half of the fault-injection layer
// (internal/fault implements it). It is the mirror image of Checker: where
// a Checker observes the run and verifies invariants, a Perturber is
// *allowed to disturb* a controlled surface of the run — flush TLBs, stall
// threads — to model the noise real hardware injects into the TLB window
// the detectors read (shootdowns, context-switch flushes, preemption).
//
// The contract that keeps the PR 2 checkers meaningful: a Perturber may
// only touch microarchitectural/timing state (TLB contents, thread
// clocks). It must never alter architectural state — memory values, page
// tables, cache coherence — so a run with faults armed still passes the
// full invariant suite, just with degraded detection fidelity.
//
// All hooks run on the engine goroutine; implementations need no locking.
// The hooks live entirely off the engine's per-event path (trace-quantum
// boundaries and migration points), so a nil Config.Perturber — and even
// an armed one between firings — adds nothing to the scheduler's hot
// loop.
type Perturber interface {
	// Begin fires once before the first event with the same live
	// environment a Checker receives. Flushing env.TLBs[core] is the
	// perturbation surface: it empties that core's TLB.
	Begin(env CheckEnv)
	// OnQuantum fires each time a thread exhausts one trace batch (at
	// most trace.DefaultQuantum events), with the thread, the global
	// time watermark, and the number of events the quantum contained —
	// the simulator's analogue of an OS scheduling tick, which is where
	// real preemptions and shootdown IPIs are delivered. Implementations
	// expand per-event fault rates over the events count. The returned
	// stall, if non-zero, is charged to the thread's clock — this is how
	// preemption bursts steal a core.
	OnQuantum(now uint64, thread int, events int) (stall uint64)
	// OnMigration fires after a Migrator changed the placement, with the
	// threads that moved. Context-switch flush scenarios hook here.
	OnMigration(now uint64, moved []int)
}
