package sim

import (
	"tlbmap/internal/comm"
	"tlbmap/internal/mem"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// Checker is the engine-side half of the runtime invariant-checking layer
// (internal/check implements it). The engine calls the hooks synchronously
// at well-defined points of the run; a checker that additionally implements
// mem.Observer is armed on the memory hierarchy as well, receiving every
// cache access and coherence transition.
//
// All hooks run on the engine goroutine, so implementations need no
// locking. A nil Config.Checker (the default) costs one pointer comparison
// per potential hook site.
type Checker interface {
	// Begin fires once before the first event, handing the checker live
	// references into the run's state.
	Begin(env CheckEnv)
	// OnAccess fires after each data access completes end to end:
	// translation, detection, and the cache access. thread issued the
	// event, core is where it ran, and frame is the physical frame the
	// address translated to. Returning a non-nil error aborts the run.
	OnAccess(thread, core int, ev trace.Event, frame vm.Frame) error
	// OnMigration fires after a Migrator moved threads; placement is the
	// new thread -> core permutation. Returning an error aborts the run.
	OnMigration(now uint64, placement []int) error
	// Finish fires once after the last event with the assembled result,
	// for whole-run invariants (counter conservation, final-image
	// checks). A non-nil error fails the run.
	Finish(res *Result) error
}

// CheckEnv hands a Checker read access to the run's live structures. The
// slices and maps are the engine's own (not copies): Placement and View
// mutate when threads migrate, which is exactly what the TLB-consistency
// checker needs to observe.
type CheckEnv struct {
	// Machine is the simulated topology.
	Machine *topology.Machine
	// AS is the shared address space (the page table of record).
	AS *vm.AddressSpace
	// System is the memory hierarchy.
	System *mem.System
	// TLB returns the first-level TLB physically attached to a core.
	TLB func(core int) *tlb.TLB
	// FlushTLB empties the full TLB hierarchy (L1 and, when present,
	// STLB) physically attached to a core. Flushing is architecturally
	// legal at any point — it models shootdowns and context-switch
	// flushes — so this is the perturbation surface handed to the
	// fault-injection layer; checkers normally only read.
	FlushTLB func(core int)
	// View is the detector-facing TLB view: the presence index whose slot
	// c is TLB(c), and the slot -> thread table. It must always mirror the
	// physical TLBs: View.ThreadOf[Placement[t]] == t, and the index must
	// equal a from-scratch recomputation over the TLB contents. The zero
	// view (no index) marks a null-detector run.
	View comm.TLBView
	// Placement is the live thread -> core permutation.
	Placement []int
	// SoftwareManaged reports the TLB refill mode of the run.
	SoftwareManaged bool
}
