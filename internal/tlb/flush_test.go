package tlb

import (
	"testing"

	"tlbmap/internal/vm"
)

// Flush is the surface the fault-injection layer drives (shootdown storms,
// context-switch invalidations on migration); these tests pin down its
// contract: the TLB empties, the statistics survive, and the structure
// keeps working afterwards.

// TestFlushEmptiesEveryLevel: a core has one TLB level, and a flush leaves
// no page of it resident.
func TestFlushEmptiesEveryLevel(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2})
	for p := vm.Page(0); p < 4; p++ {
		tl.Insert(vm.Translation{Page: p, Frame: vm.Frame(p + 10)})
	}
	if tl.Len() == 0 {
		t.Fatal("test premise broken: TLB empty before flush")
	}
	tl.Flush()
	if n := tl.Len(); n != 0 {
		t.Errorf("TLB holds %d entries after flush", n)
	}
	for p := vm.Page(0); p < 4; p++ {
		if _, hit := tl.Lookup(p); hit {
			t.Errorf("page %d survived the flush", p)
		}
	}
}

func TestFlushKeepsStatistics(t *testing.T) {
	tl := New(Config{Entries: 2, Ways: 2})
	for p := vm.Page(0); p < 2; p++ {
		tl.Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
	}
	tl.Lookup(1) // hit
	tl.Lookup(9) // miss
	hits, misses := tl.Hits(), tl.Misses()
	if hits != 1 || misses != 1 {
		t.Fatalf("test premise broken: %d hits, %d misses", hits, misses)
	}
	tl.Flush()
	if tl.Hits() != hits || tl.Misses() != misses {
		t.Error("flush disturbed the hit/miss counters")
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
