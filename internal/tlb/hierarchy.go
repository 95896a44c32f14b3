package tlb

import (
	"tlbmap/internal/vm"
)

// STLBCost is the simulated cycle cost of an L1-TLB miss that hits in the
// second-level TLB (the Nehalem STLB takes on the order of seven cycles).
const STLBCost = 7

// DefaultL2Config is the geometry of the Nehalem second-level TLB: 512
// entries, 4-way set associative.
var DefaultL2Config = Config{Entries: 512, Ways: 4}

// Hierarchy is a two-level TLB: a small, fast first-level TLB backed by an
// optional larger second-level TLB (the x86 STLB). The paper sizes its
// experiments after "the L1 TLB in the Intel Nehalem architecture"; the
// detection mechanisms always operate on the first level — that is the
// structure whose content tracks the core's recent working set — while the
// second level only absorbs part of the miss cost on hardware-managed
// machines.
type Hierarchy struct {
	l1 *TLB
	l2 *TLB // nil for a single-level TLB

	l2Hits   uint64
	l2Misses uint64
}

// NewHierarchy builds a TLB hierarchy. A zero l2 config selects a
// single-level TLB (the configuration of all software-managed
// architectures and of the paper's main experiments).
func NewHierarchy(l1 Config, l2 Config) *Hierarchy {
	h := &Hierarchy{l1: New(l1)}
	if l2 != (Config{}) {
		h.l2 = New(l2)
	}
	return h
}

// L1 exposes the first-level TLB — the structure the detection mechanisms
// search.
func (h *Hierarchy) L1() *TLB { return h.l1 }

// HasL2 reports whether a second level is present.
func (h *Hierarchy) HasL2() bool { return h.l2 != nil }

// LookupResult describes where a translation was found.
type LookupResult int

// Lookup outcomes.
const (
	// MissAll: the translation is in no TLB level; a walk or trap is
	// required.
	MissAll LookupResult = iota
	// HitL1: first-level hit.
	HitL1
	// HitL2: first-level miss, second-level hit (refilled into L1).
	HitL2
)

// Lookup translates a page through the hierarchy. On an L2 hit the entry is
// promoted into L1. Only a MissAll requires the caller to walk the page
// table and Insert the translation.
func (h *Hierarchy) Lookup(p vm.Page) (vm.Frame, LookupResult) {
	if f, hit := h.l1.Lookup(p); hit {
		return f, HitL1
	}
	if h.l2 == nil {
		return 0, MissAll
	}
	if f, hit := h.l2.Lookup(p); hit {
		h.l2Hits++
		h.l1.Insert(vm.Translation{Page: p, Frame: f})
		return f, HitL2
	}
	h.l2Misses++
	return 0, MissAll
}

// Insert installs a translation in every level.
func (h *Hierarchy) Insert(tr vm.Translation) {
	h.l1.Insert(tr)
	if h.l2 != nil {
		h.l2.Insert(tr)
	}
}

// Flush empties every level, keeping the hit/miss statistics. This models
// the full-TLB invalidations real systems suffer — context switches on
// architectures without ASIDs, and broad shootdowns — and is what the
// fault-injection layer calls to disturb a run: the next access to every
// previously-resident page misses and re-walks.
func (h *Hierarchy) Flush() {
	h.l1.Flush()
	if h.l2 != nil {
		h.l2.Flush()
	}
}

// L2Hits returns the number of L1 misses that hit in the second level.
func (h *Hierarchy) L2Hits() uint64 { return h.l2Hits }

// L2Misses returns the number of lookups that missed every level.
func (h *Hierarchy) L2Misses() uint64 { return h.l2Misses }
