// Package mem implements the simulated memory hierarchy of Figure 3 and
// Table II: private write-through L1 data caches, L2 caches shared by core
// pairs with a MESI write-back protocol, and a snooping interconnect whose
// latency depends on whether a transfer stays inside a chip or crosses the
// front-side bus.
//
// The package exposes exactly the events the paper measures in Section VI-B:
// cache-line invalidations, snoop transactions (cache-to-cache transfers),
// and L2 misses, plus the intra-/inter-chip traffic split motivating
// Section III-A2.
package mem

import (
	"fmt"
)

// LineShift is log2 of the cache line size (64-byte lines, Table II).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// Line is a physical cache-line number (physical address >> LineShift).
type Line uint64

// MESIState is the coherence state of a cached line.
type MESIState uint8

// The four MESI states.
const (
	Invalid MESIState = iota
	Shared
	Exclusive
	Modified
)

func (s MESIState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// CacheConfig describes the geometry and latency of one cache level.
type CacheConfig struct {
	SizeBytes int    // total capacity
	Ways      int    // set associativity
	Latency   uint64 // access latency in cycles
}

// Lines returns the number of cache lines the configuration holds.
func (c CacheConfig) Lines() int { return c.SizeBytes / LineSize }

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.Lines() / c.Ways }

// Validate reports whether the geometry is consistent.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: size (%d) and ways (%d) must be positive", c.SizeBytes, c.Ways)
	}
	if c.SizeBytes%LineSize != 0 {
		return fmt.Errorf("mem: size %d not a multiple of the %d-byte line", c.SizeBytes, LineSize)
	}
	if c.Lines()%c.Ways != 0 {
		return fmt.Errorf("mem: %d lines not divisible by %d ways", c.Lines(), c.Ways)
	}
	return nil
}

// Table II configurations.
var (
	// DefaultL1Config: 32 KiB, 4-way, 2-cycle, write-through.
	DefaultL1Config = CacheConfig{SizeBytes: 32 << 10, Ways: 4, Latency: 2}
	// DefaultL2Config: 6 MiB, 8-way, 8-cycle, write-back MESI, shared by
	// two cores.
	DefaultL2Config = CacheConfig{SizeBytes: 6 << 20, Ways: 8, Latency: 8}
)

// invalidTag marks an empty way in the way-metadata array. Physical line
// numbers are bounded far below 2^64 (58 usable bits of physical address),
// so the all-ones value can never collide with a resident line.
const invalidTag = ^uint64(0)

// Residency-entry layout: idx[l] packs the resident line's global way
// index (plus one, so the zero value means "absent") with its MESI state.
// wayBits caps a cache at 2^27-1 ways — three orders of magnitude above
// the largest modelled L2 — and leaves the two bits a MESI state needs.
const (
	wayBits = 27
	wayMask = 1<<wayBits - 1
)

// wayMeta is the per-way replacement metadata: the resident line's number
// (invalidTag while empty) and its LRU stamp. Victim selection — the only
// remaining scan in the cache — reads both fields of every way in a set,
// so they share one array: a 4-way set spans a single host cache line
// instead of the two that parallel tag/LRU slices would cost per fill.
type wayMeta struct {
	tag uint64
	lru uint64
}

// Cache is a set-associative cache with per-line MESI state and LRU
// replacement. It is used for both L1s (which only ever hold lines in
// Shared state because they are write-through) and L2s.
//
// The authoritative structure is a line-indexed residency map: idx[l]
// packs 1 + the global way index of line l with its MESI state, and holds
// 0 while the line is absent. It is a paged lineTable, so a cache pays
// for the line ranges it has touched, not for the highest line number it
// has held. Every lookup-shaped operation — Lookup, Probe, SetState —
// resolves through idx in O(1), and because the state rides in the same
// word, a Probe (the snoop path) costs exactly one load. The way arrays
// remain authoritative for geometry: victim selection on a fill still
// scans the line's set, which is the only remaining scan in the cache and
// runs once per fill rather than once per access.
//
// Set storage is allocated lazily, one set on its first fill: building a
// paper-configuration 6 MiB L2 would otherwise zero megabytes per
// simulation run, and short runs touch a small fraction of the sets. The
// lazy path is invisible to callers — a never-touched set behaves exactly
// like a set full of Invalid entries.
type Cache struct {
	cfg   CacheConfig
	nsets uint64
	mask  uint64 // nsets-1 when nsets is a power of two
	pow2  bool
	ways  int
	// setBlock[s] is 1 + the block index of set s inside meta, or 0 while
	// the set is unallocated. Blocks are ways long.
	setBlock []int32
	meta     []wayMeta
	// idx[l] = (1 + global way index) | state<<wayBits for resident line
	// l, 0 when absent.
	idx   lineTable[int32]
	clock uint64
}

// NewCache builds an empty cache; it panics on an invalid configuration,
// which indicates a broken preset.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Lines() > wayMask {
		panic(fmt.Sprintf("mem: %d lines overflow the packed residency entry", cfg.Lines()))
	}
	nsets := uint64(cfg.Sets())
	return &Cache{
		cfg:      cfg,
		nsets:    nsets,
		mask:     nsets - 1,
		pow2:     nsets&(nsets-1) == 0,
		ways:     cfg.Ways,
		setBlock: make([]int32, nsets),
	}
}

func (c *Cache) setOf(l Line) int {
	if c.pow2 {
		return int(uint64(l) & c.mask)
	}
	return int(uint64(l) % c.nsets)
}

// allocSet materializes a set's backing storage on its first fill and
// returns the block offset.
func (c *Cache) allocSet(s int) int {
	off := len(c.meta)
	for i := 0; i < c.ways; i++ {
		c.meta = append(c.meta, wayMeta{tag: invalidTag})
	}
	c.setBlock[s] = int32(off/c.ways) + 1
	return off
}

// entry returns line l's packed residency entry, or 0 when absent.
func (c *Cache) entry(l Line) int32 { return c.idx.get(uint64(l)) }

// Lookup returns the MESI state of a line, refreshing its LRU position on a
// hit. Invalid means a miss.
func (c *Cache) Lookup(l Line) MESIState {
	c.clock++
	if e := c.entry(l); e != 0 {
		c.meta[e&wayMask-1].lru = c.clock
		return MESIState(e >> wayBits)
	}
	return Invalid
}

// lookupWay is Lookup returning the matched way's index alongside the
// state (-1 on a miss). The write path reads and then transitions the
// state of the same way; returning the index lets it use setStateAt
// instead of a second residency resolution. Clock advance and LRU refresh
// are identical to Lookup. The index is valid until the next fill into
// this cache.
func (c *Cache) lookupWay(l Line) (int, MESIState) {
	c.clock++
	if e := c.entry(l); e != 0 {
		ix := int(e&wayMask) - 1
		c.meta[ix].lru = c.clock
		return ix, MESIState(e >> wayBits)
	}
	return -1, Invalid
}

// Probe returns the state of a line without touching LRU state — the
// snooping path, which must not disturb the replacement order of the
// snooped cache. One load: absent lines decode to Invalid.
func (c *Cache) Probe(l Line) MESIState {
	return MESIState(c.entry(l) >> wayBits)
}

// SetState transitions the state of a resident line (e.g. on a snoop
// downgrade M→S or an invalidation →I). It reports whether the line was
// resident.
func (c *Cache) SetState(l Line, s MESIState) bool {
	p := c.idx.at(uint64(l))
	if p == nil || *p == 0 {
		return false
	}
	e := *p
	if s == Invalid {
		c.meta[e&wayMask-1].tag = invalidTag
		*p = 0
		return true
	}
	*p = e&wayMask | int32(s)<<wayBits
	return true
}

// setStateAt transitions the state of the resident line l known to sit at
// global way index ix (from lookupWay). It skips the residency resolution
// SetState would run; transitioning to Invalid retires the way.
func (c *Cache) setStateAt(ix int, l Line, s MESIState) {
	p := c.idx.at(uint64(l)) // non-nil: l is resident
	if s == Invalid {
		c.meta[ix].tag = invalidTag
		*p = 0
		return
	}
	*p = int32(ix+1) | int32(s)<<wayBits
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Line     Line
	State    MESIState // Modified means a write-back is required
	Happened bool
}

// insertNew installs a line the caller has just established is not
// resident (a miss fill), evicting the LRU way of its set if necessary; it
// skips the residency probe. Calling it with a resident line would
// duplicate the line in its set.
func (c *Cache) insertNew(l Line, s MESIState) Eviction {
	c.clock++
	return c.fill(l, s)
}

// fill installs a non-resident line, choosing a victim way.
func (c *Cache) fill(l Line, s MESIState) Eviction {
	si := c.setOf(l)
	var off int
	if b := c.setBlock[si]; b == 0 {
		off = c.allocSet(si)
	} else {
		off = int(b-1) * c.ways
	}
	// One pass picks the victim: the first empty way wins outright,
	// otherwise the first way with the minimal LRU stamp.
	end := off + c.ways
	victim, free := off, false
	minLru := ^uint64(0)
	for w := off; w < end; w++ {
		m := &c.meta[w]
		if m.tag == invalidTag {
			victim, free = w, true
			break
		}
		if m.lru < minLru {
			minLru, victim = m.lru, w
		}
	}
	var ev Eviction
	if !free {
		old := c.meta[victim].tag
		p := c.idx.at(old) // non-nil: old is resident
		ev = Eviction{Line: Line(old), State: MESIState(*p >> wayBits), Happened: true}
		*p = 0
	}
	c.meta[victim] = wayMeta{tag: uint64(l), lru: c.clock}
	*c.idx.slot(uint64(l)) = int32(victim+1) | int32(s)<<wayBits
	return ev
}

// Each calls f for every resident line and its state, in set order. It does
// not perturb LRU state; the invariant checkers use it to compare a cache's
// actual contents against their shadow model.
func (c *Cache) Each(f func(Line, MESIState)) {
	for s := range c.setBlock {
		b := c.setBlock[s]
		if b == 0 {
			continue
		}
		off := int(b-1) * c.ways
		for i := 0; i < c.ways; i++ {
			if t := c.meta[off+i].tag; t != invalidTag {
				f(Line(t), MESIState(c.idx.get(t)>>wayBits))
			}
		}
	}
}

// Len returns the number of resident lines.
func (c *Cache) Len() int {
	n := 0
	for i := range c.meta {
		if c.meta[i].tag != invalidTag {
			n++
		}
	}
	return n
}
