package comm

import (
	"testing"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// view builds n standalone TLBs behind a fresh view, thread i on TLB i,
// and returns the TLBs too so tests can fill them.
func view(n int) (TLBView, []*tlb.TLB) {
	tlbs := make([]*tlb.TLB, n)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.Config{Entries: 16, Ways: 4})
	}
	return NewTLBView(tlbs), tlbs
}

func insert(tlbs []*tlb.TLB, core int, p vm.Page) {
	tlbs[core].Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
}

func TestSMDetectorSampling(t *testing.T) {
	v, tl := view(2)
	insert(tl, 1, 7) // thread 1 holds page 7
	d := NewSMDetector(2, 3)
	// First two misses are below the threshold: no search.
	if c := d.OnTLBMiss(0, 7, v); c != 0 {
		t.Errorf("miss 1 cost %d, want 0", c)
	}
	if c := d.OnTLBMiss(0, 7, v); c != 0 {
		t.Errorf("miss 2 cost %d, want 0", c)
	}
	// Third miss triggers the search and finds the match.
	if c := d.OnTLBMiss(0, 7, v); c != SMSearchCycles {
		t.Errorf("miss 3 cost %d, want %d", c, SMSearchCycles)
	}
	if d.Matrix().At(0, 1) != 1 {
		t.Errorf("matrix(0,1) = %d, want 1", d.Matrix().At(0, 1))
	}
	if d.Searches() != 1 {
		t.Errorf("searches = %d", d.Searches())
	}
	if f := d.SampledFraction(); f != 1.0/3 {
		t.Errorf("sampled fraction = %v, want 1/3", f)
	}
}

func TestSMDetectorPerThreadCounters(t *testing.T) {
	v, _ := view(2)
	d := NewSMDetector(2, 2)
	// Interleave misses of two threads: each thread has its own counter
	// (the flowchart counter lives in the per-core trap handler).
	d.OnTLBMiss(0, 1, v)
	d.OnTLBMiss(1, 1, v)
	if d.Searches() != 0 {
		t.Error("search fired before per-thread threshold")
	}
	d.OnTLBMiss(0, 1, v)
	if d.Searches() != 1 {
		t.Error("thread 0 second miss should search")
	}
}

func TestSMDetectorNoMatchesOnPrivatePages(t *testing.T) {
	v, tl := view(3)
	insert(tl, 0, 1)
	d := NewSMDetector(3, 1)
	d.OnTLBMiss(0, 99, v) // nobody holds page 99
	if d.Matrix().Total() != 0 {
		t.Error("counted communication for a private page")
	}
}

func TestSMDetectorZeroSampleDefaultsToOne(t *testing.T) {
	d := NewSMDetector(2, 0)
	v, tl := view(2)
	insert(tl, 1, 5)
	if c := d.OnTLBMiss(0, 5, v); c != SMSearchCycles {
		t.Error("sampleEvery 0 should behave as 1")
	}
}

func TestHMDetectorScanInterval(t *testing.T) {
	v, tl := view(2)
	insert(tl, 0, 3)
	insert(tl, 1, 3)
	d := NewHMDetector(2, 100)
	// The very first call only arms the detector (TLBs start empty in a
	// real run).
	if c := d.MaybeScan(0, v); c != 0 {
		t.Error("first call should not scan")
	}
	if c := d.MaybeScan(50, v); c != 0 {
		t.Error("scanned before the interval elapsed")
	}
	if c := d.MaybeScan(120, v); c != HMScanCycles {
		t.Errorf("scan cost = %d, want %d", c, HMScanCycles)
	}
	if d.Matrix().At(0, 1) != 1 {
		t.Errorf("matrix(0,1) = %d, want 1", d.Matrix().At(0, 1))
	}
	// Immediately after a scan the detector is quiet again.
	if c := d.MaybeScan(121, v); c != 0 {
		t.Error("scanned twice within one interval")
	}
	if d.Searches() != 1 {
		t.Errorf("searches = %d", d.Searches())
	}
}

func TestHMDetectorCountsAllPairs(t *testing.T) {
	v, tl := view(4)
	// Page 3 resident everywhere: every pair matches.
	for c := 0; c < 4; c++ {
		insert(tl, c, 3)
	}
	d := NewHMDetector(4, 10)
	d.MaybeScan(0, v)
	d.MaybeScan(20, v)
	if got := d.Matrix().Total(); got != 6 {
		t.Errorf("total matches = %d, want 6 (all pairs)", got)
	}
}

func TestHMDetectorMultipleMatchesPerPair(t *testing.T) {
	v, tl := view(2)
	insert(tl, 0, 1)
	insert(tl, 0, 2)
	insert(tl, 1, 1)
	insert(tl, 1, 2)
	d := NewHMDetector(2, 10)
	d.MaybeScan(0, v)
	d.MaybeScan(20, v)
	if got := d.Matrix().At(0, 1); got != 2 {
		t.Errorf("matches = %d, want 2 (two shared pages)", got)
	}
}

func TestOracleDetectorPageGranularity(t *testing.T) {
	d := NewOracleDetector(3, PageGranularity)
	page0 := vm.Addr(0)
	page0late := vm.Addr(100) // same page, different offset
	d.OnAccess(0, page0)
	d.OnAccess(1, page0late)
	if d.Matrix().At(0, 1) != 1 {
		t.Errorf("matrix(0,1) = %d", d.Matrix().At(0, 1))
	}
	// Repeated accesses by the same thread are not communication.
	d.OnAccess(1, page0)
	d.OnAccess(1, page0)
	if d.Matrix().At(0, 1) != 1 {
		t.Error("same-thread repeats counted")
	}
	// A third thread communicates with both previous accessors.
	d.OnAccess(2, page0)
	if d.Matrix().At(2, 0) != 1 || d.Matrix().At(2, 1) != 1 {
		t.Errorf("history not applied: %v", d.Matrix().String())
	}
}

func TestOracleDetectorLineGranularity(t *testing.T) {
	d := NewOracleDetector(2, LineGranularity)
	// Same page, different cache lines: page-level false sharing that
	// the line oracle must NOT count.
	d.OnAccess(0, vm.Addr(0))
	d.OnAccess(1, vm.Addr(64))
	if d.Matrix().Total() != 0 {
		t.Error("line oracle counted accesses to distinct lines")
	}
	// Same line: counted.
	d.OnAccess(1, vm.Addr(8))
	if d.Matrix().At(0, 1) != 1 {
		t.Error("line oracle missed same-line sharing")
	}
	if d.Granularity() != LineGranularity {
		t.Error("granularity accessor")
	}
}

func TestOracleHistoryBounded(t *testing.T) {
	d := NewOracleDetector(6, PageGranularity)
	for th := 0; th < 5; th++ {
		d.OnAccess(th, vm.Addr(0))
	}
	// Thread 5 should pair with at most historyDepth prior threads.
	before := d.Matrix().Total()
	d.OnAccess(5, vm.Addr(0))
	added := d.Matrix().Total() - before
	if added != historyDepth {
		t.Errorf("history added %d pairs, want %d", added, historyDepth)
	}
}

func TestNullDetector(t *testing.T) {
	var d NullDetector
	if d.Name() != "none" || d.Matrix() != nil {
		t.Error("null detector misbehaves")
	}
	if d.OnTLBMiss(0, 0, TLBView{}) != 0 || d.MaybeScan(0, TLBView{}) != 0 {
		t.Error("null detector charged cycles")
	}
	d.OnAccess(0, 0)
}

func TestMultiDetectorFanOut(t *testing.T) {
	v, tl := view(2)
	insert(tl, 1, 4)
	sm := NewSMDetector(2, 1)
	hm := NewHMDetector(2, 10)
	or := NewOracleDetector(2, PageGranularity)
	multi := NewMultiDetector(sm, hm, or)

	if c := multi.OnTLBMiss(0, 4, v); c != SMSearchCycles {
		t.Errorf("multi miss cost = %d", c)
	}
	multi.OnAccess(0, vm.Addr(4<<12))
	multi.OnAccess(1, vm.Addr(4<<12))
	multi.MaybeScan(0, v)
	multi.MaybeScan(100, v)

	if sm.Matrix().At(0, 1) != 1 {
		t.Error("SM child missed")
	}
	if or.Matrix().At(0, 1) != 1 {
		t.Error("oracle child missed")
	}
	if multi.Matrix() != sm.Matrix() {
		t.Error("multi matrix should be the first child's")
	}
	if len(multi.Children()) != 3 {
		t.Error("children accessor")
	}
	if multi.Name() != "multi" {
		t.Error("name")
	}
	if sm.Searches() != 1 || hm.Searches() != 1 {
		t.Errorf("children searched %d (SM) and %d (HM) times, want 1 each", sm.Searches(), hm.Searches())
	}
}

func TestDetectorNames(t *testing.T) {
	if NewSMDetector(2, 1).Name() != "SM" ||
		NewHMDetector(2, 1).Name() != "HM" ||
		NewOracleDetector(2, PageGranularity).Name() != "oracle" {
		t.Error("detector names wrong")
	}
}

func TestPaperCostConstants(t *testing.T) {
	// Section VI-C: the HM scan is vastly more expensive than the SM
	// search (Theta(P^2 S) vs Theta(P)).
	if SMSearchCycles != 231 || HMScanCycles != 84297 {
		t.Error("paper-measured routine costs changed")
	}
}
