package mem

import (
	"math/rand"
	"runtime"
	"testing"
)

// cacheEntry is the reference model's representation of one cache way;
// the production Cache keeps the line and LRU stamp in its way blocks and
// the state in its residency table.
type cacheEntry struct {
	line  Line
	state MESIState
	lru   uint64
}

// refCache is a straightforward eagerly-allocated model of a set-associative
// LRU cache, used to check that the lazily-allocated, block-stored Cache
// behaves exactly like an eagerly-zeroed array of sets.
type refCache struct {
	cfg   CacheConfig
	sets  [][]cacheEntry
	clock uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	sets := make([][]cacheEntry, cfg.Sets())
	for i := range sets {
		sets[i] = make([]cacheEntry, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets}
}

func (c *refCache) setOf(l Line) int { return int(uint64(l) % uint64(c.cfg.Sets())) }

func (c *refCache) lookup(l Line) MESIState {
	c.clock++
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			set[i].lru = c.clock
			return set[i].state
		}
	}
	return Invalid
}

func (c *refCache) insert(l Line, s MESIState) Eviction {
	c.clock++
	set := c.sets[c.setOf(l)]
	victim := -1
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			set[i].state = s
			set[i].lru = c.clock
			return Eviction{}
		}
		if set[i].state == Invalid && victim == -1 {
			victim = i
		}
	}
	var ev Eviction
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		ev = Eviction{Line: set[victim].line, State: set[victim].state, Happened: true}
	}
	set[victim] = cacheEntry{line: l, state: s, lru: c.clock}
	return ev
}

func (c *refCache) setState(l Line, s MESIState) bool {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			set[i].state = s
			return true
		}
	}
	return false
}

// TestLazyCacheMatchesEagerModel replays a random operation mix against the
// production cache and the eager reference model and requires identical
// results operation by operation — hits, states, LRU victims, evictions.
func TestLazyCacheMatchesEagerModel(t *testing.T) {
	// anyLine draws from four times a cache's capacity, so sets fill and
	// evict.
	anyLine := func(cfg CacheConfig, rng *rand.Rand) Line { return Line(rng.Intn(4 * cfg.Lines())) }
	for _, tc := range []struct {
		cfg  CacheConfig
		line func(CacheConfig, *rand.Rand) Line
	}{
		{CacheConfig{SizeBytes: 4 << 10, Ways: 4, Latency: 2}, anyLine},   // 16 sets, power of two
		{CacheConfig{SizeBytes: 12 << 10, Ways: 4, Latency: 8}, anyLine},  // 48 sets, not a power of two
		{CacheConfig{SizeBytes: 12 << 10, Ways: 12, Latency: 8}, anyLine}, // 12 ways do not divide a block
		// 96 sets of 12 ways fill three blocks, each ending in padding.
		{CacheConfig{SizeBytes: 72 << 10, Ways: 12, Latency: 8}, anyLine},
		// Table II L2: 256 sets, four blocks of 64, and twice as many
		// lines per set as it has ways, so the blocks fill and evict.
		{DefaultL2Config, func(cfg CacheConfig, rng *rand.Rand) Line {
			set := rng.Intn(4 * blockWays / cfg.Ways)
			return Line(set + cfg.Sets()*rng.Intn(2*cfg.Ways))
		}},
	} {
		cfg := tc.cfg
		c := NewCache(cfg)
		ref := newRefCache(cfg)
		rng := rand.New(rand.NewSource(7))
		states := []MESIState{Shared, Exclusive, Modified}
		for op := 0; op < 20000; op++ {
			l := tc.line(cfg, rng)
			switch rng.Intn(4) {
			case 0:
				if got, want := c.Lookup(l), ref.lookup(l); got != want {
					t.Fatalf("cfg %+v op %d: Lookup(%d) = %v, want %v", cfg, op, l, got, want)
				}
			case 1:
				st := states[rng.Intn(len(states))]
				if got, want := c.Insert(l, st), ref.insert(l, st); got != want {
					t.Fatalf("cfg %+v op %d: Insert(%d) eviction = %+v, want %+v", cfg, op, l, got, want)
				}
			case 2:
				// Include Invalid: the production cache retires the way's
				// tag to the sentinel, the model only flips the state —
				// the two must stay indistinguishable.
				st := MESIState(rng.Intn(len(states) + 1))
				if got, want := c.SetState(l, st), ref.setState(l, st); got != want {
					t.Fatalf("cfg %+v op %d: SetState(%d) = %v, want %v", cfg, op, l, got, want)
				}
			case 3:
				if got, want := c.Probe(l), probeRef(ref, l); got != want {
					t.Fatalf("cfg %+v op %d: Probe(%d) = %v, want %v", cfg, op, l, got, want)
				}
			}
		}
		// Final content comparison through Each.
		got := map[Line]MESIState{}
		c.Each(func(l Line, s MESIState) { got[l] = s })
		want := map[Line]MESIState{}
		for _, set := range ref.sets {
			for _, e := range set {
				if e.state != Invalid {
					want[e.line] = e.state
				}
			}
		}
		if len(got) != len(want) || c.Len() != len(want) {
			t.Fatalf("cfg %+v: %d resident lines (Len %d), want %d", cfg, len(got), c.Len(), len(want))
		}
		for l, s := range want {
			if got[l] != s {
				t.Fatalf("cfg %+v: line %d state %v, want %v", cfg, l, got[l], s)
			}
		}
	}
}

func probeRef(c *refCache, l Line) MESIState {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			return set[i].state
		}
	}
	return Invalid
}

// TestLazyCacheAllocatesOnDemand checks that untouched sets consume no
// way storage, that the sets filled first share one block, and that Flush
// keeps working on a partially-allocated cache.
func TestLazyCacheAllocatesOnDemand(t *testing.T) {
	c := NewCache(DefaultL2Config)
	if len(c.blocks) != 0 {
		t.Fatalf("fresh cache allocated %d blocks", len(c.blocks))
	}
	c.Insert(0, Shared)
	c.Insert(1, Modified)
	if len(c.blocks) != 1 {
		t.Fatalf("%d blocks after two inserts, want 1", len(c.blocks))
	}
	if c.setBlock[0] != 1 || c.setBlock[1] != 1+int32(DefaultL2Config.Ways) {
		t.Fatalf("sets 0 and 1 start at ways %d and %d, want 0 and %d",
			c.setBlock[0]-1, c.setBlock[1]-1, DefaultL2Config.Ways)
	}
	for s, b := range c.setBlock[2:] {
		if b != 0 {
			t.Fatalf("untouched set %d placed at way %d", s+2, b-1)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after Flush = %d, want 0", c.Len())
	}
	if c.Lookup(0) != Invalid {
		t.Fatal("flushed line still resident")
	}
}

// wayOf returns the way storage of resident line l.
func wayOf(c *Cache, l Line) *wayMeta {
	ix := c.entry(l) & wayMask
	return &c.blocks[ix>>blockBits][ix&blockMask]
}

// TestCacheWayStorageNeverMoves fills one line into every set of a Table II
// L2 after line 0 and requires line 0's way to keep its address: a set's
// ways are placed once and never copied, so a way index stays valid while
// its line is resident.
func TestCacheWayStorageNeverMoves(t *testing.T) {
	c := NewCache(DefaultL2Config)
	c.Insert(0, Exclusive)
	w := wayOf(c, 0)
	for s := 1; s < DefaultL2Config.Sets(); s++ {
		c.Insert(Line(s), Shared)
		if got := wayOf(c, 0); got != w {
			t.Fatalf("line 0's way moved from %p to %p when set %d filled", w, got, s)
		}
	}
	if w.tag != 0 || c.Lookup(0) != Exclusive {
		t.Fatalf("line 0's way holds tag %d", w.tag)
	}
	if want := DefaultL2Config.Lines() / blockWays; len(c.blocks) != want {
		t.Fatalf("%d blocks after every set filled, want %d", len(c.blocks), want)
	}
}

// TestCacheFillAllocationBound fills one line into every set of a Table II
// L2, which places every set, and bounds what that allocates in total.
// The way storage is 1.57 MB (98,304 16-byte ways); the set index and the
// residency table add about 0.1 MB. A way array grown by append copies
// every way placed so far each time it regrows, about 9 MB in all.
func TestCacheFillAllocationBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache(DefaultL2Config)
	for s := 0; s < DefaultL2Config.Sets(); s++ {
		c.Insert(Line(s), Shared)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.2f MB", float64(got)/1e6)
	if got >= 2e6 {
		t.Fatalf("filling every set of a %d-set cache allocated %.2f MB, want under 2 MB", DefaultL2Config.Sets(), float64(got)/1e6)
	}
	if c.Len() != DefaultL2Config.Sets() {
		t.Fatalf("Len = %d, want %d", c.Len(), DefaultL2Config.Sets())
	}
}
