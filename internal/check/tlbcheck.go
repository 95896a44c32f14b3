package check

import (
	"tlbmap/internal/sim"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// sweepEvery is the access-count period of the full TLB sweep. Each access
// already gets an O(1) frame cross-check; the periodic sweep additionally
// walks every resident TLB entry, so it is amortized.
const sweepEvery = 2048

// tlbChecker validates the address-translation layer against the page
// table of record:
//
//  1. every access's frame must match what the VM layer maps the page to
//     (a stale TLB entry silently redirects all traffic of a page);
//  2. every resident TLB entry on every core must map an allocated page to
//     its recorded frame (swept periodically and at the end of the run);
//  3. the detector-facing TLB view — the "mirror in main memory" the
//     paper's SM mechanism reads — must always name, for each core, the
//     thread currently running there, including right after a migration
//     rewrites the view;
//  4. the placement consulted per access must agree with the engine's
//     thread -> core permutation;
//  5. when the run carries a view, its presence index must equal a
//     from-scratch recomputation over the TLB contents, and slot c must
//     hold every page core c's TLB holds — the structure detection
//     answers from must never drift from the TLBs it mirrors, including
//     across flushes, shootdowns and migrations.
type tlbChecker struct {
	s *Suite

	env      sim.CheckEnv
	accesses uint64
}

func (t *tlbChecker) init(env sim.CheckEnv) {
	t.env = env
	t.accesses = 0
	t.checkView()
	t.checkPresence()
}

func (t *tlbChecker) onAccess(thread, core int, ev trace.Event, frame vm.Frame) {
	if got := t.env.Placement[thread]; got != core {
		t.s.reportf("tlb", "thread %d ran on core %d but the placement pins it to core %d", thread, core, got)
	}
	page := ev.Addr.Page()
	want, ok := t.env.AS.Lookup(page)
	if !ok {
		t.s.reportf("tlb", "access to page %#x, which the VM layer never allocated", uint64(page))
	} else if want != frame {
		t.s.reportf("tlb", "access to page %#x translated to frame %#x, page table says %#x",
			uint64(page), uint64(frame), uint64(want))
	}
	t.accesses++
	if t.accesses%sweepEvery == 0 {
		t.sweep()
	}
}

func (t *tlbChecker) onMigration(placement []int) {
	// The engine validated the permutation; re-prove it independently.
	n := t.env.Machine.NumCores()
	seen := make([]bool, n)
	for _, c := range placement {
		if c < 0 || c >= n || seen[c] {
			t.s.reportf("tlb", "post-migration placement %v is not a permutation", placement)
			break
		}
		seen[c] = true
	}
	t.checkView()
}

// checkView proves the detector-facing view's slot -> thread table is
// the inverse of the placement.
func (t *tlbChecker) checkView() {
	if t.env.View.Index == nil {
		return
	}
	for th, c := range t.env.Placement {
		if int(t.env.View.ThreadOf[c]) != th {
			t.s.reportf("tlb", "detector view of thread %d does not mirror the TLB of its core %d", th, c)
		}
	}
}

// sweep re-validates every resident TLB entry on every core against the
// page table, plus the detector view.
func (t *tlbChecker) sweep() {
	for c := 0; c < t.env.Machine.NumCores(); c++ {
		tl := t.env.TLB(c)
		for _, p := range tl.ResidentPages() {
			frame, ok := tl.Peek(p)
			if !ok {
				// ResidentPages and Peek disagree: TLB corruption.
				t.s.reportf("tlb", "core %d: page %#x resident but not peekable", c, uint64(p))
				continue
			}
			want, mapped := t.env.AS.Lookup(p)
			if !mapped {
				t.s.reportf("tlb", "core %d: TLB maps page %#x, which the VM layer never allocated",
					c, uint64(p))
			} else if want != frame {
				t.s.reportf("tlb", "core %d: TLB maps page %#x to frame %#x, page table says %#x",
					c, uint64(p), uint64(frame), uint64(want))
			}
		}
	}
	t.checkView()
	t.checkPresence()
}

// checkPresence proves the presence index agrees with the TLBs it
// mirrors (invariant 5). Validate recomputes the index from scratch over
// the TLBs attached to it; the per-core pass proves slot c is core c's
// TLB. Both walk every resident entry, so this runs on the amortized
// sweep cadence, not per access.
func (t *tlbChecker) checkPresence() {
	ix := t.env.View.Index
	if ix == nil {
		return
	}
	if err := ix.Validate(); err != nil {
		t.s.reportf("tlb", "presence index diverged from TLB contents: %v", err)
		return
	}
	for c := 0; c < t.env.Machine.NumCores(); c++ {
		for _, p := range t.env.TLB(c).ResidentPages() {
			if m := ix.Holders(p); m == nil || m[c>>6]&(1<<(uint(c)&63)) == 0 {
				t.s.reportf("tlb", "presence index slot %d lacks page %#x, which core %d's TLB holds",
					c, uint64(p), c)
				return
			}
		}
	}
}
