package comm

import (
	"testing"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// These tests pin down detector behaviour when TLB entries vanish mid-epoch
// — the situation the fault layer's shootdown storms and migration flushes
// create: a scan or search that ran a moment ago would have found sharers,
// but the entries are gone by the time the detector looks.

func flushAll(tlbs []*tlb.TLB) {
	for _, t := range tlbs {
		t.Flush()
	}
}

// An HM scan that runs right after a shootdown sees empty TLBs: it must
// charge its normal cost, add nothing, and leave the matrix monotone.
func TestHMScanAfterShootdownSeesNothing(t *testing.T) {
	v, tl := view(2)
	insert(tl, 0, 3)
	insert(tl, 1, 3)
	d := NewHMDetector(2, 100)
	d.MaybeScan(0, v)   // arm
	d.MaybeScan(120, v) // counts the shared page
	if d.Matrix().At(0, 1) != 1 {
		t.Fatalf("test premise broken: matrix(0,1) = %d", d.Matrix().At(0, 1))
	}

	flushAll(tl) // the shootdown
	if c := d.MaybeScan(240, v); c != HMScanCycles {
		t.Errorf("post-flush scan cost = %d, want %d (the scan still runs)", c, HMScanCycles)
	}
	if d.Matrix().At(0, 1) != 1 {
		t.Errorf("post-flush scan changed the matrix: %d", d.Matrix().At(0, 1))
	}

	// Re-populated TLBs are detected again on the next window.
	insert(tl, 0, 3)
	insert(tl, 1, 3)
	d.MaybeScan(360, v)
	if d.Matrix().At(0, 1) != 2 {
		t.Errorf("detection did not recover after the flush: %d", d.Matrix().At(0, 1))
	}
}

// An SM search fired against freshly-flushed remote TLBs finds no sharer:
// the search cost is still charged (the trap handler cannot know the search
// will be fruitless) and no false pair is recorded.
func TestSMSearchAfterShootdownFindsNothing(t *testing.T) {
	v, tl := view(2)
	insert(tl, 1, 7)
	d := NewSMDetector(2, 1)
	flushAll(tl)
	if c := d.OnTLBMiss(0, 7, v); c != SMSearchCycles {
		t.Errorf("search cost = %d, want %d", c, SMSearchCycles)
	}
	if d.Matrix().Total() != 0 {
		t.Errorf("search against flushed TLBs recorded %d pairs", d.Matrix().Total())
	}
	if d.Searches() != 1 {
		t.Errorf("searches = %d", d.Searches())
	}
}

// Entries vanishing mid-epoch must never make an epoch delta go negative:
// a window in which the detector saw nothing yields an all-zero epoch, and
// the whole-run matrix stays the sum of the epochs.
func TestEpochDetectorEntriesVanishMidEpoch(t *testing.T) {
	v, tl := view(2)
	insert(tl, 0, 3)
	insert(tl, 1, 3)
	inner := NewHMDetector(2, 50)
	d := NewEpochDetector(inner, 100)
	d.MaybeScan(0, v)   // arm both clocks
	d.MaybeScan(60, v)  // scan 1: sees the sharing
	flushAll(tl)        // entries vanish mid-epoch
	d.MaybeScan(120, v) // scan 2 sees nothing; epoch 1 cut here
	d.MaybeScan(240, v) // scan 3: still nothing; epoch 2 cut
	d.Flush()

	epochs := d.Epochs()
	if len(epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(epochs))
	}
	if epochs[0].At(0, 1) != 1 {
		t.Errorf("epoch 1 lost the pre-flush detection:\n%s", epochs[0])
	}
	var sum uint64
	for e, m := range epochs {
		for i := 0; i < m.N(); i++ {
			for j := 0; j < m.N(); j++ {
				if m.At(i, j) > d.Matrix().Total() {
					t.Fatalf("epoch %d cell (%d,%d) = %d: negative delta wrapped", e, i, j, m.At(i, j))
				}
			}
		}
		sum += m.Total()
	}
	if sum != d.Matrix().Total() {
		t.Errorf("epoch sum %d != whole-run total %d", sum, d.Matrix().Total())
	}
}

// A TLB that is flushed and refilled between two scans of the same window
// pair must not double-count: each scan window stands alone.
func TestHMScanFlushRefillCycleCountsPerWindow(t *testing.T) {
	v, tl := view(3)
	d := NewHMDetector(3, 100)
	d.MaybeScan(0, v)
	for w := 1; w <= 4; w++ {
		insert(tl, 0, vm.Page(9))
		insert(tl, 2, vm.Page(9))
		d.MaybeScan(uint64(w*120), v)
		flushAll(tl)
	}
	if got := d.Matrix().At(0, 2); got != 4 {
		t.Errorf("matrix(0,2) = %d, want 4 (one per window)", got)
	}
	if got := d.Matrix().At(0, 1); got != 0 {
		t.Errorf("matrix(0,1) = %d, want 0 (core 1 never shared)", got)
	}
}
