package comm

import (
	"testing"

	"tlbmap/internal/vm"
)

func TestEpochDetectorSlicesTime(t *testing.T) {
	inner := NewOracleDetector(4, PageGranularity)
	d := NewEpochDetector(inner, 100)

	// Arm the epoch clock.
	d.MaybeScan(0, TLBView{})

	// Epoch 1: threads 0 and 1 share page 5.
	d.OnAccess(0, vm.Page(5).Base())
	d.OnAccess(1, vm.Page(5).Base())
	d.MaybeScan(150, TLBView{}) // crosses the boundary: cut epoch 1

	// Epoch 2: threads 2 and 3 share page 9.
	d.OnAccess(2, vm.Page(9).Base())
	d.OnAccess(3, vm.Page(9).Base())
	d.Flush()

	epochs := d.Epochs()
	if len(epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(epochs))
	}
	if epochs[0].At(0, 1) != 1 || epochs[0].At(2, 3) != 0 {
		t.Errorf("epoch 1 wrong:\n%s", epochs[0])
	}
	if epochs[1].At(2, 3) != 1 || epochs[1].At(0, 1) != 0 {
		t.Errorf("epoch 2 wrong:\n%s", epochs[1])
	}
	// The whole-run matrix still accumulates everything.
	if d.Matrix().Total() != 2 {
		t.Errorf("whole-run total = %d", d.Matrix().Total())
	}
}

func TestEpochDetectorDelegates(t *testing.T) {
	inner := NewSMDetector(2, 1)
	d := NewEpochDetector(inner, 1000)
	v, tl := view(2)
	insert(tl, 1, 3)
	if c := d.OnTLBMiss(0, 3, v); c != SMSearchCycles {
		t.Error("miss not delegated")
	}
	if inner.Searches() != 1 {
		t.Error("search not delegated")
	}
	if d.Name() != "SM+epochs" {
		t.Errorf("name = %q", d.Name())
	}
	if d.Inner() != inner {
		t.Error("inner accessor")
	}
}

func TestEpochDetectorWithNilMatrixInner(t *testing.T) {
	d := NewEpochDetector(NullDetector{}, 10)
	d.MaybeScan(0, TLBView{})
	d.MaybeScan(100, TLBView{})
	d.Flush()
	if len(d.Epochs()) != 0 {
		t.Error("epochs recorded for a matrix-less detector")
	}
}

func TestEpochDetectorZeroIntervalClamped(t *testing.T) {
	d := NewEpochDetector(NewOracleDetector(2, PageGranularity), 0)
	d.MaybeScan(0, TLBView{})
	d.OnAccess(0, 0)
	d.OnAccess(1, 0)
	d.MaybeScan(5, TLBView{})
	if len(d.Epochs()) != 1 {
		t.Errorf("epochs = %d", len(d.Epochs()))
	}
}
