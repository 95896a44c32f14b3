package tlb

import (
	"testing"
	"testing/quick"

	"tlbmap/internal/vm"
)

func tr(p vm.Page) vm.Translation { return vm.Translation{Page: p, Frame: vm.Frame(p) + 1000} }

// holds reports whether page p is resident in tl, through Peek.
func holds(tl *TLB, p vm.Page) bool {
	_, ok := tl.Peek(p)
	return ok
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if DefaultConfig.Entries != 64 || DefaultConfig.Ways != 4 {
		t.Error("default config is not the paper's 64-entry 4-way TLB")
	}
	if DefaultConfig.Sets() != 16 {
		t.Errorf("Sets = %d, want 16", DefaultConfig.Sets())
	}
	bad := []Config{
		{Entries: 0, Ways: 4},
		{Entries: 64, Ways: 0},
		{Entries: 63, Ways: 4},
		{Entries: -4, Ways: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{Entries: 3, Ways: 2})
}

func TestHitMissCycle(t *testing.T) {
	tl := New(DefaultConfig)
	if _, hit := tl.Lookup(5); hit {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(tr(5))
	f, hit := tl.Lookup(5)
	if !hit {
		t.Fatal("inserted page missed")
	}
	if f != 1005 {
		t.Errorf("frame = %d, want 1005", f)
	}
	if tl.Hits() != 1 || tl.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", tl.Hits(), tl.Misses())
	}
}

func TestSetMapping(t *testing.T) {
	tl := New(DefaultConfig)
	sets := DefaultConfig.Sets()
	if tl.SetOf(0) != 0 || tl.SetOf(vm.Page(sets)) != 0 || tl.SetOf(vm.Page(sets+3)) != 3 {
		t.Error("set indexing wrong")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 2}) // 4 sets, 2 ways
	// Pages 0, 4, 8 all map to set 0.
	tl.Insert(tr(0))
	tl.Insert(tr(4))
	tl.Lookup(0) // touch 0: now 4 is LRU
	evicted, was := tl.Insert(tr(8))
	if !was || evicted != 4 {
		t.Errorf("evicted %v (%v), want page 4", evicted, was)
	}
	if !holds(tl, 0) || holds(tl, 4) || !holds(tl, 8) {
		t.Error("post-eviction residency wrong")
	}
	if tl.Evictions() != 1 {
		t.Errorf("Evictions = %d", tl.Evictions())
	}
}

func TestInsertExistingUpdatesWithoutEviction(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2})
	tl.Insert(tr(0))
	_, was := tl.Insert(vm.Translation{Page: 0, Frame: 77})
	if was {
		t.Error("re-insert evicted")
	}
	f, _ := tl.Lookup(0)
	if f != 77 {
		t.Errorf("frame not updated: %d", f)
	}
	if tl.Len() != 1 {
		t.Errorf("Len = %d", tl.Len())
	}
}

func TestPeekDoesNotPerturbLRU(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2}) // 2 sets
	// Pages 0 and 2 map to set 0.
	tl.Insert(tr(0))
	tl.Insert(tr(2))
	// Probe page 0 many times; it must stay the LRU victim.
	for i := 0; i < 10; i++ {
		if f, ok := tl.Peek(0); !ok || f != tr(0).Frame {
			t.Fatal("Peek lost page 0")
		}
	}
	evicted, _ := tl.Insert(tr(4))
	if evicted != 0 {
		t.Errorf("evicted %d; Peek perturbed LRU", evicted)
	}
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Errorf("Peek moved the statistics: %d hits, %d misses", tl.Hits(), tl.Misses())
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tl := New(DefaultConfig)
	tl.Insert(tr(1))
	tl.Insert(tr(2))
	if !tl.Invalidate(1) {
		t.Error("Invalidate missed resident page")
	}
	if tl.Invalidate(1) {
		t.Error("Invalidate hit non-resident page")
	}
	if holds(tl, 1) || !holds(tl, 2) {
		t.Error("invalidate state wrong")
	}
	tl.Flush()
	if tl.Len() != 0 {
		t.Errorf("Len after flush = %d", tl.Len())
	}
}

func TestResidentPagesAndPagesInSet(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 2})
	for _, p := range []vm.Page{0, 1, 4, 5} {
		tl.Insert(tr(p))
	}
	if got := len(tl.ResidentPages()); got != 4 {
		t.Errorf("ResidentPages len = %d", got)
	}
	set0 := tl.PagesInSet(0, nil)
	if len(set0) != 2 {
		t.Errorf("set 0 pages = %v", set0)
	}
	for _, p := range set0 {
		if p != 0 && p != 4 {
			t.Errorf("unexpected page %d in set 0", p)
		}
	}
}

// TestCapacityInvariant: the TLB never holds more than Entries pages and
// never more than Ways pages per set, under arbitrary insert sequences.
func TestCapacityInvariant(t *testing.T) {
	f := func(pages []uint16) bool {
		cfg := Config{Entries: 16, Ways: 4}
		tl := New(cfg)
		for _, p := range pages {
			tl.Insert(tr(vm.Page(p)))
			if tl.Len() > cfg.Entries {
				return false
			}
			for s := 0; s < cfg.Sets(); s++ {
				if len(tl.PagesInSet(s, nil)) > cfg.Ways {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestInsertThenContains: an inserted page is always resident immediately
// afterwards, whatever came before.
func TestInsertThenContains(t *testing.T) {
	f := func(pages []uint16, probe uint16) bool {
		tl := New(Config{Entries: 8, Ways: 2})
		for _, p := range pages {
			tl.Insert(tr(vm.Page(p)))
		}
		tl.Insert(tr(vm.Page(probe)))
		return holds(tl, vm.Page(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEvictionOnlyWhenSetFull: inserting into a set with free ways never
// evicts.
func TestEvictionOnlyWhenSetFull(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 4})    // 2 sets
	for i, p := range []vm.Page{0, 2, 4, 6} { // all set 0
		_, was := tl.Insert(tr(p))
		if was {
			t.Errorf("insert %d evicted with free ways", i)
		}
	}
	_, was := tl.Insert(tr(8))
	if !was {
		t.Error("full set did not evict")
	}
}

// Invalidate drops the entry for a page if present (the OS invalidation on
// page-table modification mentioned in Section IV-B). It reports whether an
// entry was dropped.
func (t *TLB) Invalidate(p vm.Page) bool {
	ix := t.resident(p)
	if ix < 0 {
		return false
	}
	t.flat[ix].valid = false
	t.idx[p] = 0
	t.setLen[ix/t.ways]--
	if t.pidx != nil {
		t.pidx.remove(t.pslot, p)
	}
	return true
}

// Evictions returns the number of LRU evictions performed.
func (t *TLB) Evictions() uint64 { return t.evictions }
