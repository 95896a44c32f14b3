package comm

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// probeSearch is the literal Figure 1a search: probe the missing page in
// every other thread's TLB (byThread[t] is the TLB thread t runs on). It
// is the oracle SMSearch is held to.
func probeSearch(m *Matrix, byThread []*tlb.TLB, thread int, page vm.Page) {
	for other, t := range byThread {
		if other == thread {
			continue
		}
		if _, held := t.Peek(page); held {
			m.Inc(thread, other)
		}
	}
}

// pairwiseScan is the literal Figure 1b scan: all pairs of TLBs, set by
// set, counting the pages resident in the same set of both. It is the
// oracle HMDetector's index walk is held to. The TLBs share a geometry,
// so a page of TLB i's set s is in TLB j's set s exactly when TLB j holds
// it.
func pairwiseScan(m *Matrix, byThread []*tlb.TLB) {
	sets := byThread[0].Config().Sets()
	var pages []vm.Page
	for i := range byThread {
		for j := i + 1; j < len(byThread); j++ {
			n := 0
			for s := 0; s < sets; s++ {
				pages = byThread[i].PagesInSet(s, pages[:0])
				for _, p := range pages {
					if _, held := byThread[j].Peek(p); held {
						n++
					}
				}
			}
			if n > 0 {
				m.Add(i, j, uint64(n))
			}
		}
	}
}

// ReferenceDetector runs the literal Figure 1 routines on the schedule of
// SMDetector or HMDetector — a search on every period-th miss of a
// thread, or a scan every period cycles after the arming call — over the
// per-thread TLBs tlbs returns, never reading the view. The engine-level
// differential in engine_test.go holds real runs to it.
type ReferenceDetector struct {
	sm       bool
	period   uint64
	tlbs     func() []*tlb.TLB
	matrix   *Matrix
	counters []uint64
	searches uint64
	lastScan uint64
	started  bool
}

// NewReferenceSM is the reference for NewSMDetector(n, sampleEvery).
func NewReferenceSM(n int, sampleEvery uint64, tlbs func() []*tlb.TLB) *ReferenceDetector {
	return &ReferenceDetector{sm: true, period: sampleEvery, tlbs: tlbs, matrix: NewMatrix(n), counters: make([]uint64, n)}
}

// NewReferenceHM is the reference for NewHMDetector(n, interval).
func NewReferenceHM(n int, interval uint64, tlbs func() []*tlb.TLB) *ReferenceDetector {
	return &ReferenceDetector{period: interval, tlbs: tlbs, matrix: NewMatrix(n)}
}

// Name, OnAccess, OnTLBMiss, MaybeScan and Matrix implement Detector.

func (d *ReferenceDetector) Name() string          { return "reference" }
func (d *ReferenceDetector) OnAccess(int, vm.Addr) {}
func (d *ReferenceDetector) Matrix() *Matrix       { return d.matrix }
func (d *ReferenceDetector) Searches() uint64      { return d.searches }

func (d *ReferenceDetector) OnTLBMiss(thread int, page vm.Page, _ TLBView) uint64 {
	if !d.sm {
		return 0
	}
	if d.counters[thread]++; d.counters[thread] < d.period {
		return 0
	}
	d.counters[thread] = 0
	d.searches++
	probeSearch(d.matrix, d.tlbs(), thread, page)
	return SMSearchCycles
}

func (d *ReferenceDetector) MaybeScan(now uint64, _ TLBView) uint64 {
	if d.sm {
		return 0
	}
	if !d.started {
		d.started, d.lastScan = true, now
		return 0
	}
	if now-d.lastScan < d.period {
		return 0
	}
	d.lastScan = now
	d.searches++
	pairwiseScan(d.matrix, d.tlbs())
	return HMScanCycles
}

// threadTLBs lists the TLB each thread of the view runs on.
func threadTLBs(v TLBView, tlbs []*tlb.TLB) []*tlb.TLB {
	out := make([]*tlb.TLB, len(tlbs))
	for slot, th := range v.ThreadOf {
		out[th] = tlbs[slot]
	}
	return out
}

// randomView builds cores TLBs behind a view for the randomized
// differentials below.
func randomView(cores int) (TLBView, []*tlb.TLB) {
	tlbs := make([]*tlb.TLB, cores)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.Config{Entries: 32, Ways: 4})
	}
	return NewTLBView(tlbs), tlbs
}

// mutate applies one random TLB operation: a flush, or an insert that
// may evict.
func mutate(rng *rand.Rand, tlbs []*tlb.TLB, pages int) {
	c := rng.Intn(len(tlbs))
	p := vm.Page(rng.Intn(pages))
	if rng.Intn(10) == 0 {
		tlbs[c].Flush()
		return
	}
	tlbs[c].Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
}

// migrate swaps the threads of two random slots, as a migration rewrites
// the engine's view.
func migrate(rng *rand.Rand, v TLBView) {
	i, j := rng.Intn(len(v.ThreadOf)), rng.Intn(len(v.ThreadOf))
	v.ThreadOf[i], v.ThreadOf[j] = v.ThreadOf[j], v.ThreadOf[i]
}

func requireEqualMatrices(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("matrix sizes differ: %d vs %d", got.N(), want.N())
	}
	for i := 0; i < got.N(); i++ {
		for j := 0; j < got.N(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("matrices diverge at (%d,%d): indexed %d, reference %d",
					i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestHMIndexedScanMatchesPairwise is the randomized differential of the
// HM scan: an HM detector walking the presence index accumulates a matrix
// byte-identical to the literal Figure 1b pairwise scan, under churn
// (inserts, invalidations, flushes), under rounds where every TLB holds
// the same pages, and under slot -> thread permutations that model
// migrations. Core counts above 64 cover the multi-word mask path.
func TestHMIndexedScanMatchesPairwise(t *testing.T) {
	for _, cores := range []int{2, 8, 70} {
		cores := cores
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed + int64(cores)))
			v, tlbs := randomView(cores)
			d := NewHMDetector(cores, 1)
			ref := NewMatrix(cores)
			d.MaybeScan(0, v) // arming call: the first MaybeScan never scans
			now := uint64(2)
			for round := 0; round < 50; round++ {
				for k := 0; k < 40; k++ {
					mutate(rng, tlbs, 96)
				}
				if round%10 == 5 {
					// Every TLB takes the same pages: long runs of equal
					// holder masks, which Walk batches into one call.
					for _, tl := range tlbs {
						for p := 0; p < 24; p++ {
							tl.Insert(vm.Translation{Page: vm.Page(p), Frame: vm.Frame(p)})
						}
					}
				}
				if c := d.MaybeScan(now, v); c != HMScanCycles {
					t.Fatalf("round %d: scan charged %d, want %d", round, c, HMScanCycles)
				}
				pairwiseScan(ref, threadTLBs(v, tlbs))
				now += 2
				if round%7 == 3 {
					migrate(rng, v)
				}
			}
			requireEqualMatrices(t, d.Matrix(), ref)
			if d.Searches() != 50 {
				t.Fatalf("detector counted %d scans, want 50", d.Searches())
			}
		})
	}
}

// TestSMIndexedSearchMatchesProbe is the SM half of the differential: the
// index-answered "which cores hold this page" search must increment the
// same matrix cells as probing every remote TLB's set.
func TestSMIndexedSearchMatchesProbe(t *testing.T) {
	for _, cores := range []int{2, 8, 70} {
		cores := cores
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xace + int64(cores)))
			v, tlbs := randomView(cores)
			d := NewSMDetector(cores, 1)
			ref := NewMatrix(cores)
			for op := 0; op < 3000; op++ {
				mutate(rng, tlbs, 96)
				if op%500 == 250 {
					migrate(rng, v)
				}
				th := rng.Intn(cores)
				p := vm.Page(rng.Intn(96))
				if c := d.OnTLBMiss(th, p, v); c != SMSearchCycles {
					t.Fatalf("op %d: search charged %d, want %d", op, c, SMSearchCycles)
				}
				probeSearch(ref, threadTLBs(v, tlbs), th, p)
			}
			requireEqualMatrices(t, d.Matrix(), ref)
		})
	}
}

// TestHMScanEmptyViewChargesNothing pins the zero-TLB fix: a due scan over
// an empty view has nothing to read, so it must charge nothing and count
// no search — previously it charged the full HMScanCycles and counted one.
func TestHMScanEmptyViewChargesNothing(t *testing.T) {
	d := NewHMDetector(4, 1)
	d.MaybeScan(0, TLBView{}) // arming call
	if c := d.MaybeScan(10, TLBView{}); c != 0 {
		t.Fatalf("scan over an empty view charged %d cycles, want 0", c)
	}
	if d.Searches() != 0 {
		t.Fatalf("empty-view scans counted %d searches, want 0", d.Searches())
	}
	// A later scan over a real view still runs normally.
	if c := d.MaybeScan(30, benchView(4, 4)); c != HMScanCycles {
		t.Fatalf("scan over a populated view charged %d, want %d", c, HMScanCycles)
	}
	if d.Searches() != 1 {
		t.Fatalf("populated scan counted %d searches, want 1", d.Searches())
	}
}

// TestWrappersForwardPresenceIndex proves the view survives composition:
// hooks called through the Multi wrapper must reach the inner detectors
// with the view that lets them read the TLBs.
func TestWrappersForwardPresenceIndex(t *testing.T) {
	const cores = 4
	v, tlbs := randomView(cores)
	for c := 0; c < cores; c++ {
		tlbs[c].Insert(vm.Translation{Page: 3, Frame: 3})
	}
	hm := NewHMDetector(cores, 1)
	sm := NewSMDetector(cores, 1)
	var det Detector = NewMultiDetector(hm, sm)
	det.MaybeScan(0, v)
	det.MaybeScan(2, v)
	det.OnTLBMiss(0, 3, v)
	if got := hm.Matrix().Total(); got != cores*(cores-1)/2 {
		t.Fatalf("HM inner counted %d pairs through the wrappers, want %d", got, cores*(cores-1)/2)
	}
	if got := sm.Matrix().Total(); got != cores-1 {
		t.Fatalf("SM inner found %d holders through the wrappers, want %d", got, cores-1)
	}
}
