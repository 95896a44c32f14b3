// Package tlb models per-core Translation Lookaside Buffers: set-associative
// caches of page-table entries with LRU replacement, as described in
// Section IV of the paper.
//
// Both detection mechanisms operate on these structures:
//
//   - The software-managed (SM) detector searches the *other* cores' TLBs
//     for the page that just missed (Figure 1a). For a set-associative TLB
//     only the matching set has to be inspected, giving the Θ(P) search of
//     Table I.
//   - The hardware-managed (HM) detector periodically compares all pairs of
//     TLBs set-by-set (Figure 1b), giving the Θ(P²·S) scan of Table I.
//
// The paper's experimental configuration — 64 entries, 4-way set
// associative, the default geometry of the UltraSPARC TLB and of the Intel
// Nehalem L1 TLB — is exposed as DefaultConfig.
package tlb

import (
	"fmt"

	"tlbmap/internal/vm"
)

// Management selects who refills the TLB on a miss.
type Management int

const (
	// SoftwareManaged TLBs trap to the operating system on every miss
	// (SPARC, MIPS). The OS refill path is where the SM detector hooks in.
	SoftwareManaged Management = iota
	// HardwareManaged TLBs are refilled by a hardware page walker (x86).
	// The OS cannot see misses, so the HM detector scans periodically.
	HardwareManaged
)

// Config describes the geometry of a TLB.
type Config struct {
	// Entries is the total number of translation entries.
	Entries int
	// Ways is the set associativity. Entries must be divisible by Ways.
	Ways int
}

// DefaultConfig is the geometry used throughout the paper's evaluation
// (Section VI-A): 64 entries, 4-way set associative.
var DefaultConfig = Config{Entries: 64, Ways: 4}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb: entries (%d) and ways (%d) must be positive", c.Entries, c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: entries (%d) not divisible by ways (%d)", c.Entries, c.Ways)
	}
	return nil
}

// entry is one TLB slot.
type entry struct {
	valid bool
	page  vm.Page
	frame vm.Frame
	lru   uint64 // logical timestamp of last touch
}

// TLB is one core's translation lookaside buffer. It is also the "mirror in
// main memory" the paper proposes for SM detection: the detector inspects
// these structures directly, which on real hardware corresponds to reading
// the OS-maintained mirror rather than the physical TLB.
//
// TLB is not safe for concurrent use; the engine serializes accesses.
type TLB struct {
	cfg Config
	// flat holds all entries contiguously, ways per set: set s is
	// flat[s*ways : (s+1)*ways].
	flat  []entry
	ways  int
	clock uint64

	// nsets caches cfg.Sets(); mask is nsets-1 when nsets is a power of
	// two (the common geometries), letting SetOf use an AND instead of a
	// divide on the per-lookup path.
	nsets uint64
	mask  uint64
	pow2  bool

	// setLen[s] is the number of valid entries in set s, maintained by
	// Insert and Flush, so Flush, Len and PagesInSet skip empty sets
	// without touching the entries.
	setLen []int16

	// idx[p] is 1 + the flat index of page p's entry while resident, 0
	// otherwise. Virtual pages are handed out densely from page 1 by the
	// vm bump allocator, so a flat slice (grown lazily with the largest
	// page inserted) serves as the residency map, and every lookup-shaped
	// path — Lookup, Peek, the same-page refresh of Insert — resolves in
	// O(1) instead of scanning the set. Only victim selection on Insert
	// still reads the set.
	idx []int32

	// pidx/pslot bind this TLB to a PresenceIndex (nil when standalone).
	// Insert and Flush keep the index's bit for this TLB current; with
	// no index attached each pays one nil comparison.
	pidx  *PresenceIndex
	pslot int32

	hits      uint64
	misses    uint64
	evictions uint64
}

// New builds an empty TLB with the given geometry. It panics on an invalid
// configuration, which indicates a programming error in a preset.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := uint64(cfg.Sets())
	return &TLB{
		cfg:    cfg,
		flat:   make([]entry, cfg.Entries),
		ways:   cfg.Ways,
		nsets:  nsets,
		mask:   nsets - 1,
		pow2:   nsets&(nsets-1) == 0,
		setLen: make([]int16, nsets),
	}
}

// Config returns the TLB geometry.
func (t *TLB) Config() Config { return t.cfg }

// SetOf returns the set index a page maps to.
func (t *TLB) SetOf(p vm.Page) int {
	if t.pow2 {
		return int(uint64(p) & t.mask)
	}
	return int(uint64(p) % t.nsets)
}

// resident returns the flat index of page p's entry, or -1.
func (t *TLB) resident(p vm.Page) int {
	if uint64(p) < uint64(len(t.idx)) {
		return int(t.idx[p]) - 1
	}
	return -1
}

// indexPage records page p as resident at flat index ix.
func (t *TLB) indexPage(p vm.Page, ix int) {
	for uint64(len(t.idx)) <= uint64(p) {
		t.idx = append(t.idx, 0)
	}
	t.idx[p] = int32(ix) + 1
}

// Lookup translates a page. On a hit it refreshes the entry's LRU state and
// returns the frame. On a miss the caller must refill via Insert.
func (t *TLB) Lookup(p vm.Page) (vm.Frame, bool) {
	t.clock++
	if ix := t.resident(p); ix >= 0 {
		e := &t.flat[ix]
		e.lru = t.clock
		t.hits++
		return e.frame, true
	}
	t.misses++
	return 0, false
}

// Insert installs a translation, evicting the LRU entry of the set if it is
// full. It returns the evicted page and whether an eviction happened.
func (t *TLB) Insert(tr vm.Translation) (evicted vm.Page, wasEvicted bool) {
	t.clock++
	// Reuse the existing slot for the same page.
	if ix := t.resident(tr.Page); ix >= 0 {
		e := &t.flat[ix]
		e.frame = tr.Frame
		e.lru = t.clock
		return 0, false
	}
	s := t.SetOf(tr.Page)
	off := s * t.ways
	set := t.flat[off : off+t.ways]
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		// Evict the least recently used way. Occupancy is unchanged: one
		// valid entry replaces another.
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		evicted, wasEvicted = set[victim].page, true
		t.evictions++
		t.idx[evicted] = 0
		if t.pidx != nil {
			t.pidx.remove(t.pslot, evicted)
		}
	} else {
		t.setLen[s]++
	}
	set[victim] = entry{valid: true, page: tr.Page, frame: tr.Frame, lru: t.clock}
	t.indexPage(tr.Page, off+victim)
	if t.pidx != nil {
		t.pidx.add(t.pslot, tr.Page)
	}
	return evicted, wasEvicted
}

// Peek returns the frame a resident page maps to without perturbing LRU
// state or the hit/miss statistics — the inspection path of the
// TLB-consistency checker, which must not disturb what it validates.
func (t *TLB) Peek(p vm.Page) (vm.Frame, bool) {
	if ix := t.resident(p); ix >= 0 {
		return t.flat[ix].frame, true
	}
	return 0, false
}

// set returns the entries of set s.
func (t *TLB) set(s int) []entry { return t.flat[s*t.ways : (s+1)*t.ways] }

// Flush invalidates every entry (e.g. on a context switch without ASIDs).
func (t *TLB) Flush() {
	for s, n := range t.setLen {
		if n == 0 {
			continue
		}
		set := t.set(s)
		for i := range set {
			if set[i].valid {
				t.idx[set[i].page] = 0
				if t.pidx != nil {
					t.pidx.remove(t.pslot, set[i].page)
				}
			}
			set[i].valid = false
		}
		t.setLen[s] = 0
	}
}

// PagesInSet appends the valid pages of one set to dst and returns it.
func (t *TLB) PagesInSet(set int, dst []vm.Page) []vm.Page {
	if t.setLen[set] == 0 {
		return dst
	}
	for _, e := range t.set(set) {
		if e.valid {
			dst = append(dst, e.page)
		}
	}
	return dst
}

// ResidentPages returns all valid pages, ordered by set. Used by tests and
// by the fully-associative scan path.
func (t *TLB) ResidentPages() []vm.Page {
	out := make([]vm.Page, 0, t.cfg.Entries)
	for s := range t.setLen {
		out = t.PagesInSet(s, out)
	}
	return out
}

// Len returns the number of valid entries.
func (t *TLB) Len() int {
	n := 0
	for _, l := range t.setLen {
		n += int(l)
	}
	return n
}

// Hits returns the number of lookups that hit.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }
