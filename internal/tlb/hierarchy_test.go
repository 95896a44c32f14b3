package tlb

import (
	"testing"

	"tlbmap/internal/vm"
)

func TestHierarchySingleLevel(t *testing.T) {
	h := NewHierarchy(DefaultConfig, Config{})
	if h.HasL2() {
		t.Fatal("zero L2 config created a second level")
	}
	if _, where := h.Lookup(5); where != MissAll {
		t.Error("empty hierarchy hit")
	}
	h.Insert(vm.Translation{Page: 5, Frame: 50})
	f, where := h.Lookup(5)
	if where != HitL1 || f != 50 {
		t.Errorf("lookup = %v, %v", f, where)
	}
}

func TestHierarchyL2Refill(t *testing.T) {
	// L1 with 2 entries, L2 with 8: evicted L1 entries survive in L2.
	h := NewHierarchy(Config{Entries: 2, Ways: 2}, Config{Entries: 8, Ways: 4})
	if !h.HasL2() {
		t.Fatal("no second level")
	}
	for p := vm.Page(0); p < 4; p++ {
		h.Insert(vm.Translation{Page: p, Frame: vm.Frame(p + 100)})
	}
	// Pages 0 and 1 were evicted from L1 but remain in L2.
	f, where := h.Lookup(0)
	if where != HitL2 || f != 100 {
		t.Errorf("lookup(0) = %v, %v; want HitL2, 100", f, where)
	}
	if h.L2Hits() != 1 {
		t.Errorf("L2Hits = %d", h.L2Hits())
	}
	// The refill promoted page 0 back into L1.
	if _, where := h.Lookup(0); where != HitL1 {
		t.Error("L2 hit did not refill L1")
	}
	// A page in no level misses everything.
	if _, where := h.Lookup(99); where != MissAll {
		t.Error("absent page did not MissAll")
	}
	if h.L2Misses() != 1 {
		t.Errorf("L2Misses = %d", h.L2Misses())
	}
}

func TestDefaultL2ConfigIsNehalem(t *testing.T) {
	if DefaultL2Config.Entries != 512 || DefaultL2Config.Ways != 4 {
		t.Error("STLB default changed")
	}
	if err := DefaultL2Config.Validate(); err != nil {
		t.Error(err)
	}
}
