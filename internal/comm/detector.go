package comm

import (
	"math/bits"

	"tlbmap/internal/vm"
)

// Paper-measured cycle costs of the detection routines (Section VI-C).
const (
	// SMSearchCycles is the cost of one SM communication search: probing
	// the missing page's set in every other core's TLB mirror.
	SMSearchCycles = 231
	// HMScanCycles is the cost of one HM scan: comparing all pairs of
	// TLBs set-by-set.
	HMScanCycles = 84297
)

// Detector observes the simulated execution and accumulates a communication
// matrix. The engine invokes the hooks; a detector implements the ones it
// needs and leaves the rest as cheap no-ops returning 0 extra cycles.
type Detector interface {
	// Name identifies the detector ("SM", "HM", "oracle").
	Name() string
	// OnAccess is called for every committed data access with the
	// accessing thread and the full virtual address (oracle path).
	OnAccess(thread int, addr vm.Addr)
	// OnTLBMiss is called when a thread's TLB misses, before the refill.
	// It returns the extra cycles charged to the missing core (the SM
	// detection path of Figure 1a).
	OnTLBMiss(thread int, page vm.Page, tlbs TLBView) uint64
	// MaybeScan is called periodically with the current global cycle
	// count. It returns the extra cycles charged to every core if a scan
	// ran (the HM path of Figure 1b).
	MaybeScan(now uint64, tlbs TLBView) uint64
	// Matrix returns the communication matrix accumulated so far.
	Matrix() *Matrix
}

// NeverScans is an optional capability marker: a detector implementing it
// declares that MaybeScan always returns 0 and has no side effects, so the
// engine may elide the per-event MaybeScan dispatch entirely. Wrappers
// that forward to unknown children (Multi, Epoch, the fault layer) must
// NOT implement it — the engine assumes the conservative hook set for any
// detector without the marker.
type NeverScans interface {
	DetectorNeverScans()
}

// IgnoresAccesses is the OnAccess counterpart of NeverScans: detectors
// implementing it declare OnAccess a side-effect-free no-op, letting the
// engine skip one dynamic dispatch per simulated access.
type IgnoresAccesses interface {
	DetectorIgnoresAccesses()
}

// NullDetector detects nothing; it is the detector used for plain
// performance runs (Figures 6-9) where detection is switched off.
type NullDetector struct{}

// Name implements Detector.
func (NullDetector) Name() string { return "none" }

// OnAccess implements Detector.
func (NullDetector) OnAccess(int, vm.Addr) {}

// OnTLBMiss implements Detector.
func (NullDetector) OnTLBMiss(int, vm.Page, TLBView) uint64 { return 0 }

// MaybeScan implements Detector.
func (NullDetector) MaybeScan(uint64, TLBView) uint64 { return 0 }

// Matrix implements Detector.
func (NullDetector) Matrix() *Matrix { return nil }

// SMDetector implements the software-managed TLB mechanism of Figure 1a:
// every TLB miss traps to the OS; on every SampleEvery-th miss of a core,
// the missing page is searched in all other cores' TLB mirrors (SMSearch)
// and each match increments the communication matrix.
//
// With a set-associative TLB only the page's set is probed in each remote
// TLB, so the modelled search is Θ(P) (Table I).
type SMDetector struct {
	matrix *Matrix
	// SampleEvery is the paper's n: a search runs on every n-th miss.
	// n = 100 reproduces the 1% sampling of Section VI-A; n = 1 monitors
	// every miss.
	sampleEvery uint64
	counters    []uint64 // per-core miss counters (the flowchart counter)
	searches    uint64
	missTotal   uint64
}

// NewSMDetector builds an SM detector for n threads sampling every
// sampleEvery-th TLB miss (the paper uses 100).
func NewSMDetector(n int, sampleEvery uint64) *SMDetector {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &SMDetector{
		matrix:      NewMatrix(n),
		sampleEvery: sampleEvery,
		counters:    make([]uint64, n),
	}
}

// Name implements Detector.
func (d *SMDetector) Name() string { return "SM" }

// OnAccess implements Detector (no per-access work for SM).
func (d *SMDetector) OnAccess(int, vm.Addr) {}

// DetectorNeverScans marks MaybeScan as a no-op (SM detects on misses).
func (d *SMDetector) DetectorNeverScans() {}

// DetectorIgnoresAccesses marks OnAccess as a no-op.
func (d *SMDetector) DetectorIgnoresAccesses() {}

// OnTLBMiss implements the Figure 1a flowchart: compare the per-core
// counter against the threshold; below it, just increment and return.
// Otherwise reset the counter and search all other TLBs for the missing
// page, incrementing the matrix per match.
func (d *SMDetector) OnTLBMiss(thread int, page vm.Page, tlbs TLBView) uint64 {
	d.missTotal++
	d.counters[thread]++
	if d.counters[thread] < d.sampleEvery {
		return 0
	}
	d.counters[thread] = 0
	d.searches++
	SMSearch(d.matrix, tlbs, thread, page)
	return SMSearchCycles
}

// MaybeScan implements Detector (SM never scans periodically).
func (d *SMDetector) MaybeScan(uint64, TLBView) uint64 { return 0 }

// Matrix implements Detector.
func (d *SMDetector) Matrix() *Matrix { return d.matrix }

// Searches returns how many times the detection routine ran.
func (d *SMDetector) Searches() uint64 { return d.searches }

// SampledFraction returns the fraction of TLB misses for which a search ran
// (the "TLB Misses for which we run SM" column of Table III).
func (d *SMDetector) SampledFraction() float64 {
	if d.missTotal == 0 {
		return 0
	}
	return float64(d.searches) / float64(d.missTotal)
}

// HMDetector implements the hardware-managed TLB mechanism of Figure 1b:
// every Interval cycles the OS reads every TLB (via the proposed
// TLB-read instruction) and compares all pairs set-by-set, incrementing the
// communication matrix for each matching entry.
//
// The modelled pairwise set-by-set comparison is Θ(P²·S) (Table I); the
// host walks the presence index once instead, Θ(resident pages).
type HMDetector struct {
	matrix   *Matrix
	interval uint64
	lastScan uint64
	searches uint64
	started  bool
	holders  []int32 // per-scan scratch: threads holding the current page
}

// NewHMDetector builds an HM detector for n threads scanning every interval
// cycles (the paper uses 10,000,000 on runs lasting billions of cycles; use
// a proportionally smaller interval for shorter simulated runs).
func NewHMDetector(n int, interval uint64) *HMDetector {
	if interval == 0 {
		interval = 1
	}
	return &HMDetector{matrix: NewMatrix(n), interval: interval}
}

// Name implements Detector.
func (d *HMDetector) Name() string { return "HM" }

// OnAccess implements Detector (no per-access work for HM).
func (d *HMDetector) OnAccess(int, vm.Addr) {}

// DetectorIgnoresAccesses marks OnAccess as a no-op.
func (d *HMDetector) DetectorIgnoresAccesses() {}

// OnTLBMiss implements Detector (HM cannot observe TLB misses).
func (d *HMDetector) OnTLBMiss(int, vm.Page, TLBView) uint64 { return 0 }

// MaybeScan implements the Figure 1b flowchart: if fewer than Interval
// cycles passed since the last scan, return; otherwise record the scan
// time and count the pages shared by each pair of TLBs, from one walk of
// the presence index. The matrix is byte-identical to comparing all pairs
// of TLBs set by set — the randomized differential in presence_test.go
// holds it to that literal scan.
//
// The simulated scan cost is always the full Θ(P²·S) HMScanCycles of
// Table I — the modelled OS compares every pair of sets regardless of
// how the host computes the same answer — except when the view is empty:
// with no TLBs there is nothing to scan, so nothing is charged and no
// search is counted.
func (d *HMDetector) MaybeScan(now uint64, tlbs TLBView) uint64 {
	if d.started && now-d.lastScan < d.interval {
		return 0
	}
	if !d.started {
		// Skip the scan at cycle zero: TLBs are still empty.
		d.started = true
		d.lastScan = now
		return 0
	}
	d.lastScan = now
	if tlbs.Index == nil {
		return 0
	}
	d.searches++
	d.scan(tlbs)
	return HMScanCycles
}

// scan walks the presence index once: every resident page contributes
// one unit of communication to each pair of threads holding it. A page
// resident in TLBs i and j is exactly one set match of the pairwise scan
// (both TLBs map it to the same set under a shared geometry), and matrix
// addition commutes, so the accumulated matrix is byte-identical. Walk
// batches runs of pages with equal holder masks, so a dense shared
// working set costs a handful of pair updates rather than one per page.
// The pair loop adds into the matrix's upper-triangle cells directly: it
// is the hottest loop of a manycore HM run, and a call per pair costs
// more than the add.
func (d *HMDetector) scan(tlbs TLBView) {
	threadOf := tlbs.ThreadOf
	if cap(d.holders) < len(threadOf) {
		d.holders = make([]int32, len(threadOf))
	}
	holders := d.holders[:cap(d.holders)]
	n, cells := d.matrix.n, d.matrix.cells
	tlbs.Index.Walk(func(mask []uint64, count int) {
		cnt := 0
		for w, word := range mask {
			base := w << 6
			for word != 0 {
				holders[cnt] = threadOf[base+bits.TrailingZeros64(word)]
				cnt++
				word &= word - 1
			}
		}
		c := uint64(count)
		for a := 0; a < cnt-1; a++ {
			i := int(holders[a])
			for b := a + 1; b < cnt; b++ {
				// Holders are distinct threads, so i != j: the
				// diagonal is never written.
				if j := int(holders[b]); j < i {
					cells[j*n+i] += c
				} else {
					cells[i*n+j] += c
				}
			}
		}
	})
}

// Matrix implements Detector.
func (d *HMDetector) Matrix() *Matrix { return d.matrix }

// Searches returns how many times the detection routine ran.
func (d *HMDetector) Searches() uint64 { return d.searches }

// Granularity selects the sharing granularity of the oracle detector.
type Granularity int

const (
	// PageGranularity matches the TLB mechanisms (4 KiB pages).
	PageGranularity Granularity = iota
	// LineGranularity tracks 64-byte cache lines; comparing it against
	// PageGranularity quantifies page-level false sharing (Section III-B5).
	LineGranularity
)

// OracleDetector is the full-memory-trace reference detector, equivalent to
// the Simics-instrumentation approach of the related work (Section II,
// [7][10][11]): every access is recorded, and an access by thread t to data
// recently touched by other threads counts as communication between t and
// each of them.
//
// Two details guard the reference against the false-communication problem
// of Section III-B5 ("threads appear to communicate ... at different times
// during the execution"):
//
//   - Keeping the last few distinct accessors (rather than only the very
//     last one) avoids biasing interleaved all-to-all exchanges toward
//     whichever thread happened to touch the block most recently.
//   - Each remembered accessor expires after historyWindow further accesses
//     to the block, so a thread that stopped touching the data long ago is
//     not counted as a communication partner forever (the TLB mechanisms
//     get the same property for free from entry eviction).
//
// The oracle is far too expensive for production use — that is the paper's
// point — but it defines the ground-truth pattern the TLB mechanisms are
// scored against.
type OracleDetector struct {
	matrix      *Matrix
	granularity Granularity
	// last maps block number -> accessor history. It is an open-addressing
	// flat table rather than a Go map: the oracle touches it on every
	// single access, and in-place updates through a pointer avoid both the
	// map's hash/bucket overhead and the copy-out/copy-in of the history
	// value.
	last *blockTable
}

// historyDepth is the number of distinct recent accessors remembered per
// block (the window used by the memory-trace analyses of the related work).
const historyDepth = 3

// historyWindow is the aging bound: an accessor not seen within this many
// subsequent accesses to the block no longer counts as a partner.
const historyWindow = 16

// accessorEntry is one remembered accessor with its last-seen stamp.
type accessorEntry struct {
	thread int32 // -1 marks an empty slot
	seen   uint32
}

// accessorHistory is a tiny most-recent-first list of distinct accessors
// plus the block's access counter.
type accessorHistory struct {
	counter uint32
	entries [historyDepth]accessorEntry
}

func emptyHistory() accessorHistory {
	var h accessorHistory
	for i := range h.entries {
		h.entries[i].thread = -1
	}
	return h
}

// fresh reports whether an entry is populated and within the aging window.
func (h *accessorHistory) fresh(i int) bool {
	e := h.entries[i]
	return e.thread >= 0 && h.counter-e.seen <= historyWindow
}

// push records thread t as the most recent accessor at the current counter,
// deduplicating and dropping expired entries.
func (h accessorHistory) push(t int32) accessorHistory {
	out := emptyHistory()
	out.counter = h.counter
	out.entries[0] = accessorEntry{thread: t, seen: h.counter}
	k := 1
	for i := range h.entries {
		e := h.entries[i]
		if e.thread >= 0 && e.thread != t && h.counter-e.seen <= historyWindow && k < historyDepth {
			out.entries[k] = e
			k++
		}
	}
	return out
}

// NewOracleDetector builds an oracle detector for n threads at the given
// granularity.
func NewOracleDetector(n int, g Granularity) *OracleDetector {
	return &OracleDetector{
		matrix:      NewMatrix(n),
		granularity: g,
		last:        newBlockTable(),
	}
}

// Name implements Detector.
func (d *OracleDetector) Name() string { return "oracle" }

// OnAccess records the access and counts communication when the block
// (page or 64-byte line, per the configured granularity) was last touched
// by a different thread.
func (d *OracleDetector) OnAccess(thread int, addr vm.Addr) {
	var block uint64
	if d.granularity == PageGranularity {
		block = uint64(addr.Page())
	} else {
		block = uint64(addr) >> 6 // 64-byte lines
	}
	h := d.last.slot(block)
	h.counter++
	t := int32(thread)
	if h.entries[0].thread == t {
		// Consecutive accesses by the same thread are not communication;
		// just refresh the stamp (the common fast path).
		h.entries[0].seen = h.counter
		return
	}
	for i := range h.entries {
		if h.fresh(i) && h.entries[i].thread != t {
			d.matrix.Inc(thread, int(h.entries[i].thread))
		}
	}
	*h = h.push(t)
}

// Granularity returns the detector's sharing granularity.
func (d *OracleDetector) Granularity() Granularity { return d.granularity }

// OnTLBMiss implements Detector (the oracle does not use the TLB).
func (d *OracleDetector) OnTLBMiss(int, vm.Page, TLBView) uint64 { return 0 }

// MaybeScan implements Detector.
func (d *OracleDetector) MaybeScan(uint64, TLBView) uint64 { return 0 }

// DetectorNeverScans marks MaybeScan as a no-op (the oracle sees every
// access directly).
func (d *OracleDetector) DetectorNeverScans() {}

// Matrix implements Detector.
func (d *OracleDetector) Matrix() *Matrix { return d.matrix }
