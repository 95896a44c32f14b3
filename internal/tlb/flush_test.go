package tlb

import (
	"testing"

	"tlbmap/internal/vm"
)

// Flush is the surface the fault-injection layer drives (shootdown storms,
// context-switch invalidations on migration); these tests pin down its
// contract: every level empties, the statistics survive, and the structure
// keeps working afterwards.

func TestFlushEmptiesEveryLevel(t *testing.T) {
	h := NewHierarchy(Config{Entries: 4, Ways: 2}, Config{Entries: 16, Ways: 4})
	for p := vm.Page(0); p < 4; p++ {
		h.Insert(vm.Translation{Page: p, Frame: vm.Frame(p + 10)})
	}
	if h.L1().Len() == 0 {
		t.Fatal("test premise broken: L1 empty before flush")
	}
	h.Flush()
	if n := h.L1().Len(); n != 0 {
		t.Errorf("L1 holds %d entries after flush", n)
	}
	for p := vm.Page(0); p < 4; p++ {
		if _, where := h.Lookup(p); where != MissAll {
			t.Errorf("page %d survived the flush in some level (%v)", p, where)
		}
	}
}

func TestFlushKeepsStatistics(t *testing.T) {
	h := NewHierarchy(Config{Entries: 2, Ways: 2}, Config{Entries: 8, Ways: 4})
	for p := vm.Page(0); p < 4; p++ {
		h.Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
	}
	h.Lookup(3) // L1 hit
	h.Lookup(0) // L2 refill
	h.Lookup(9) // full miss
	hits, misses := h.L1().Hits(), h.L1().Misses()
	l2h, l2m := h.L2Hits(), h.L2Misses()
	if hits == 0 || misses == 0 || l2h != 1 || l2m != 1 {
		t.Fatalf("test premise broken: stats %d/%d L1, %d/%d L2", hits, misses, l2h, l2m)
	}
	h.Flush()
	if h.L1().Hits() != hits || h.L1().Misses() != misses {
		t.Error("flush disturbed L1 hit/miss counters")
	}
	if h.L2Hits() != l2h || h.L2Misses() != l2m {
		t.Error("flush disturbed L2 counters")
	}
}

func TestFlushedTLBKeepsWorking(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2})
	for p := vm.Page(0); p < 4; p++ {
		tl.Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
	}
	evBefore := tl.Evictions()
	tl.Flush()
	// Re-inserting into the flushed structure must reuse the invalidated
	// slots, not evict phantom entries.
	for p := vm.Page(0); p < 4; p++ {
		if _, evicted := tl.Insert(vm.Translation{Page: p, Frame: vm.Frame(p + 100)}); evicted {
			t.Errorf("insert of page %d after flush evicted a dead entry", p)
		}
	}
	if tl.Evictions() != evBefore {
		t.Error("eviction counter moved for invalid victims")
	}
	for p := vm.Page(0); p < 4; p++ {
		f, hit := tl.Lookup(p)
		if !hit || f != vm.Frame(p+100) {
			t.Errorf("page %d not resident after re-insert (hit=%v frame=%v)", p, hit, f)
		}
	}
}

func TestFlushClearsScanAndSearchSurfaces(t *testing.T) {
	// TLBs are inspected through Peek and PagesInSet; a flushed TLB must
	// look empty through both windows, set by set.
	a := New(Config{Entries: 8, Ways: 2})
	b := New(Config{Entries: 8, Ways: 2})
	for p := vm.Page(0); p < 8; p++ {
		a.Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
		b.Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
	}
	a.Flush()
	for p := vm.Page(0); p < 8; p++ {
		if _, ok := a.Peek(p); ok {
			t.Fatalf("Peek(%d) hit after flush", p)
		}
	}
	if got := a.ResidentPages(); len(got) != 0 {
		t.Errorf("ResidentPages returned %v after flush", got)
	}
	// b, filled the same way and never flushed, is the control.
	for s := 0; s < a.Config().Sets(); s++ {
		if got := a.PagesInSet(s, nil); len(got) != 0 {
			t.Errorf("set %d still holds %v after flush", s, got)
		}
		if got := b.PagesInSet(s, nil); len(got) != 2 {
			t.Errorf("unflushed set %d holds %v, want 2 pages", s, got)
		}
	}
}
