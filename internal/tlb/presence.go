package tlb

import (
	"fmt"

	"tlbmap/internal/vm"
)

// PresenceIndex is an inverted page-presence index over a group of TLBs:
// for every page resident in at least one attached TLB it records the set
// of attached TLBs ("slots", the cores of a run) currently holding a
// translation for it, as a multi-word bitmask so more than 64 cores work.
//
// The index is maintained incrementally — Insert, Invalidate and Flush on
// an attached TLB update it in O(1) per entry touched — which inverts the
// cost structure of the paper's HM mechanism on the host: instead of
// comparing all pairs of TLBs set by set (Θ(P²·S), Table I), a scan walks
// the index once, Θ(resident pages), and reads each page's holder set
// directly. The SM mechanism's "which other cores hold this page" probe
// becomes one lookup returning a bitmask instead of a set probe in every
// remote TLB. The *simulated* detection costs are unchanged: the modelled
// OS still pays the Table I complexities; the index only removes the
// host's reason to mirror them.
//
// A PresenceIndex is not safe for concurrent use; like the TLBs it
// indexes, the engine serializes accesses.
type PresenceIndex struct {
	cores int // capacity: the maximum number of attachable TLBs
	words int // mask words per page: ceil(cores/64)

	// owners[slot] is the TLB attached at that slot, in attach order.
	// Validate recomputes the index from these and is the independent
	// ground truth the runtime checker compares against.
	owners []*TLB

	// Dense storage: pages[i] has holder mask masks[i*words:(i+1)*words].
	// pos[p] is 1 + page p's dense position, 0 while untracked. Like
	// TLB.idx it is a flat slice grown lazily to the largest page seen —
	// the vm bump allocator hands pages out densely from 1, so the slice
	// stays proportional to the working set and the per-event lookups
	// (Holders, add, remove) skip the map hashing that used to dominate
	// them. Removal swap-deletes, so iteration order is an implementation
	// detail — every consumer of Walk/Holders accumulates commutatively
	// (matrix sums), which keeps results byte-identical to the pairwise
	// scan regardless of order.
	pos   []int32
	pages []vm.Page
	masks []uint64
}

// NewPresenceIndex builds an empty index with capacity for the given
// number of TLBs (one per simulated core).
func NewPresenceIndex(cores int) *PresenceIndex {
	if cores <= 0 {
		panic(fmt.Sprintf("tlb: presence index needs a positive core count, got %d", cores))
	}
	return &PresenceIndex{
		cores: cores,
		words: (cores + 63) / 64,
	}
}

// Cores returns the index capacity (the slot-id upper bound).
func (ix *PresenceIndex) Cores() int { return ix.cores }

// Words returns the number of 64-bit words in each holder mask.
func (ix *PresenceIndex) Words() int { return ix.words }

// PageCount returns how many distinct pages are resident in at least one
// attached TLB.
func (ix *PresenceIndex) PageCount() int { return len(ix.pages) }

// Attached returns how many TLBs are attached.
func (ix *PresenceIndex) Attached() int { return len(ix.owners) }

// Attach registers a TLB with the index, assigns it the next slot and
// absorbs any translations already resident, so attach order and insert
// order are interchangeable. From then on the TLB maintains its bit in
// the index on every Insert, Invalidate and Flush. It panics when the TLB
// already belongs to a different index or the capacity is exhausted —
// both indicate a wiring error in engine construction.
func (ix *PresenceIndex) Attach(t *TLB) int {
	if t.pidx == ix {
		return int(t.pslot)
	}
	if t.pidx != nil {
		panic("tlb: TLB is already attached to a different PresenceIndex")
	}
	slot := len(ix.owners)
	if slot >= ix.cores {
		panic(fmt.Sprintf("tlb: presence index capacity %d exhausted", ix.cores))
	}
	ix.owners = append(ix.owners, t)
	t.pidx = ix
	t.pslot = int32(slot)
	for s := range t.sets {
		for _, e := range t.sets[s] {
			if e.valid {
				ix.add(t.pslot, e.page)
			}
		}
	}
	return slot
}

// Holders returns the holder mask of a page — bit s set means the TLB at
// slot s holds a translation for it — or nil when no attached TLB does.
// The returned slice aliases index storage: it is only valid until the
// next mutation and must not be written.
func (ix *PresenceIndex) Holders(p vm.Page) []uint64 {
	i, ok := ix.at(p)
	if !ok {
		return nil
	}
	base := int(i) * ix.words
	return ix.masks[base : base+ix.words]
}

// at resolves a page to its dense position.
func (ix *PresenceIndex) at(p vm.Page) (int32, bool) {
	if uint64(p) >= uint64(len(ix.pos)) {
		return 0, false
	}
	i := ix.pos[p]
	return i - 1, i != 0
}

// Walk visits every resident page's holder mask, batching consecutive
// pages that share one mask into a single call (count is the run length).
// Batching is what makes the dense case cheap: when every core holds the
// same working set — the common case mid-run — an entire scan collapses
// to a handful of callbacks. fn must not retain mask or mutate the index.
func (ix *PresenceIndex) Walk(fn func(mask []uint64, count int)) {
	n := len(ix.pages)
	if n == 0 {
		return
	}
	if ix.words == 1 {
		// Single-word fast path (up to 64 cores): run detection is one
		// integer compare per page.
		masks := ix.masks
		start, cur := 0, masks[0]
		for i := 1; i < n; i++ {
			if masks[i] == cur {
				continue
			}
			fn(masks[start:start+1], i-start)
			start, cur = i, masks[i]
		}
		fn(masks[start:start+1], n-start)
		return
	}
	w := ix.words
	start := 0
	for i := 1; i < n; i++ {
		if maskEq(ix.masks[i*w:(i+1)*w], ix.masks[start*w:start*w+w]) {
			continue
		}
		fn(ix.masks[start*w:start*w+w], i-start)
		start = i
	}
	fn(ix.masks[start*w:start*w+w], n-start)
}

func maskEq(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Validate recomputes the index from scratch over the attached TLBs'
// contents and reports the first disagreement. It is the independent
// oracle behind the property tests and the runtime TLB-consistency
// checker: after any sequence of inserts, invalidations, flushes and
// shootdowns, the incrementally maintained state must equal this
// recomputation exactly.
func (ix *PresenceIndex) Validate() error {
	want := make(map[vm.Page][]uint64, len(ix.pages))
	for slot, t := range ix.owners {
		for _, p := range t.ResidentPages() {
			m := want[p]
			if m == nil {
				m = make([]uint64, ix.words)
				want[p] = m
			}
			m[slot>>6] |= 1 << (uint(slot) & 63)
		}
	}
	if len(want) != len(ix.pages) {
		return fmt.Errorf("tlb: presence index tracks %d pages, TLBs hold %d", len(ix.pages), len(want))
	}
	tracked := 0
	for _, i := range ix.pos {
		if i != 0 {
			tracked++
		}
	}
	if len(ix.pages) != tracked {
		return fmt.Errorf("tlb: presence index dense storage has %d pages but position index has %d",
			len(ix.pages), tracked)
	}
	for i, p := range ix.pages {
		if at, ok := ix.at(p); !ok || int(at) != i {
			return fmt.Errorf("tlb: presence index position index disagrees with dense storage for page %#x", uint64(p))
		}
		m := want[p]
		if m == nil {
			return fmt.Errorf("tlb: presence index tracks page %#x, which no TLB holds", uint64(p))
		}
		base := i * ix.words
		if !maskEq(ix.masks[base:base+ix.words], m) {
			return fmt.Errorf("tlb: presence index mask for page %#x is %x, TLB contents say %x",
				uint64(p), ix.masks[base:base+ix.words], m)
		}
	}
	return nil
}

// add sets the slot's bit for a page, creating the page's mask on first
// residency. O(1): one position lookup plus one bit set.
func (ix *PresenceIndex) add(slot int32, p vm.Page) {
	for uint64(len(ix.pos)) <= uint64(p) {
		ix.pos = append(ix.pos, 0)
	}
	i := ix.pos[p] - 1
	if i < 0 {
		i = int32(len(ix.pages))
		ix.pos[p] = i + 1
		ix.pages = append(ix.pages, p)
		for w := 0; w < ix.words; w++ {
			ix.masks = append(ix.masks, 0)
		}
	}
	ix.masks[int(i)*ix.words+int(slot>>6)] |= 1 << (uint(slot) & 63)
}

// remove clears the slot's bit for a page and swap-deletes the page once
// no attached TLB holds it. O(1) apart from the words-long zero test.
func (ix *PresenceIndex) remove(slot int32, p vm.Page) {
	i, ok := ix.at(p)
	if !ok {
		return
	}
	base := int(i) * ix.words
	ix.masks[base+int(slot>>6)] &^= 1 << (uint(slot) & 63)
	for w := 0; w < ix.words; w++ {
		if ix.masks[base+w] != 0 {
			return
		}
	}
	last := len(ix.pages) - 1
	lp := ix.pages[last]
	ix.pages[i] = lp
	copy(ix.masks[base:base+ix.words], ix.masks[last*ix.words:(last+1)*ix.words])
	ix.pos[lp] = i + 1
	ix.pages = ix.pages[:last]
	ix.masks = ix.masks[:last*ix.words]
	ix.pos[p] = 0
}
