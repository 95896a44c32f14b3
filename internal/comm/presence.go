package comm

import (
	"math/bits"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// TLBView gives a detector read access to every core's TLB (the OS-visible
// mirrors of Section IV-A, or the new TLB-read instruction of Section IV-B)
// through one inverted page-presence index over them: for each resident
// page, the set of index slots (one per TLB) holding a translation for it.
// ThreadOf maps a slot to the thread currently running on that TLB's core,
// so detector matrices come out indexed by thread; it is a permutation of
// the threads, and the engine rewrites it when threads migrate.
//
// The index is the only way detectors see the TLBs. It inverts the host
// cost of both mechanisms: the SM search reads one holder mask instead of
// probing a set in every remote TLB, and the HM scan walks the resident
// pages once instead of comparing all TLB pairs set by set. The simulated
// charges (SMSearchCycles, HMScanCycles) keep the paper's Table I
// complexities regardless.
type TLBView struct {
	Index    *tlb.PresenceIndex
	ThreadOf []int32
}

// NewTLBView attaches the TLBs, in order, to a new presence index and
// returns the view with TLB i running thread i. The TLBs keep the index
// current on every Insert, Invalidate and Flush from then on.
func NewTLBView(tlbs []*tlb.TLB) TLBView {
	v := TLBView{Index: tlb.NewPresenceIndex(len(tlbs)), ThreadOf: make([]int32, len(tlbs))}
	for i, t := range tlbs {
		v.Index.Attach(t)
		v.ThreadOf[i] = int32(i)
	}
	return v
}

// SMSearch is the search of Figure 1a: it adds one unit of communication
// between thread and every other thread whose TLB holds page. Both planes
// call it: SMDetector on a sampled miss in the engine, and mapperd on
// every ingested miss. The caller charges SMSearchCycles.
func SMSearch(m *Matrix, v TLBView, thread int, page vm.Page) {
	for w, word := range v.Index.Holders(page) {
		base := w << 6
		for word != 0 {
			slot := base + bits.TrailingZeros64(word)
			word &= word - 1
			if th := int(v.ThreadOf[slot]); th != thread {
				m.Inc(thread, th)
			}
		}
	}
}
