package comm

import (
	"testing"

	"tlbmap/internal/vm"
)

func TestPageProfileBasics(t *testing.T) {
	p := NewPageProfile(4)
	p.Record(2, 10)
	p.Record(1, 10)
	p.Record(1, 10)
	p.Record(3, 20)

	if got := p.FirstToucher(10); got != 2 {
		t.Errorf("first toucher = %d, want 2", got)
	}
	if got := p.FirstToucher(99); got != -1 {
		t.Errorf("untouched first toucher = %d", got)
	}
	pages := p.Pages()
	if len(pages) != 2 || pages[0] != 10 || pages[1] != 20 {
		t.Errorf("pages = %v", pages)
	}
	c := p.Counts(10)
	if c[1] != 2 || c[2] != 1 || c[0] != 0 {
		t.Errorf("counts = %v", c)
	}
}

func TestPageProfileSharedPages(t *testing.T) {
	p := NewPageProfile(4)
	p.Record(0, 1) // private
	p.Record(0, 2)
	p.Record(3, 2) // shared
	shared := p.SharedPages()
	if len(shared) != 1 || shared[0] != 2 {
		t.Errorf("shared = %v", shared)
	}
}

func TestPageProfileDominantNode(t *testing.T) {
	p := NewPageProfile(4)
	// Page 5: threads 0 and 1 (node 0) touch 3 times total, thread 3
	// (node 1) twice.
	p.Record(0, 5)
	p.Record(0, 5)
	p.Record(1, 5)
	p.Record(3, 5)
	p.Record(3, 5)
	node := func(th int) int { return th / 2 }
	if got := p.DominantNode(5, node); got != 0 {
		t.Errorf("dominant node = %d, want 0", got)
	}
	if got := p.DominantNode(77, node); got != -1 {
		t.Errorf("untouched dominant node = %d", got)
	}
}

func TestPageProfileMatrix(t *testing.T) {
	p := NewPageProfile(3)
	// Page 1: thread 0 x4, thread 1 x2 -> weight min(4,2)=2.
	for i := 0; i < 4; i++ {
		p.Record(0, 1)
	}
	p.Record(1, 1)
	p.Record(1, 1)
	// Page 2: private to thread 2 -> no communication.
	p.Record(2, 2)
	m := p.Matrix()
	if m.At(0, 1) != 2 {
		t.Errorf("matrix(0,1) = %d, want 2", m.At(0, 1))
	}
	if m.Total() != 2 {
		t.Errorf("total = %d", m.Total())
	}
}

func TestProfileDetector(t *testing.T) {
	d := NewProfileDetector(2)
	if d.Name() != "page-profile" {
		t.Error("name")
	}
	d.OnAccess(0, vm.Addr(3<<vm.PageShift)+8)
	d.OnAccess(1, vm.Addr(3<<vm.PageShift))
	if c := d.Profile().Counts(3); c[0] != 1 || c[1] != 1 {
		t.Error("accesses not recorded")
	}
	if d.Matrix().At(0, 1) != 1 {
		t.Errorf("derived matrix: %s", d.Matrix())
	}
	if d.OnTLBMiss(0, 0, TLBView{}) != 0 || d.MaybeScan(0, TLBView{}) != 0 {
		t.Error("profiler should be free")
	}
}
