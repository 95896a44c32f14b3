package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheConfigValidate(t *testing.T) {
	if err := DefaultL1Config.Validate(); err != nil {
		t.Errorf("L1 default invalid: %v", err)
	}
	if err := DefaultL2Config.Validate(); err != nil {
		t.Errorf("L2 default invalid: %v", err)
	}
	// Table II values.
	if DefaultL1Config.SizeBytes != 32<<10 || DefaultL1Config.Ways != 4 || DefaultL1Config.Latency != 2 {
		t.Error("L1 config deviates from Table II")
	}
	if DefaultL2Config.SizeBytes != 6<<20 || DefaultL2Config.Ways != 8 || DefaultL2Config.Latency != 8 {
		t.Error("L2 config deviates from Table II")
	}
	bad := []CacheConfig{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 100, Ways: 4},     // not line multiple
		{SizeBytes: 64 * 10, Ways: 3}, // lines not divisible by ways
		{SizeBytes: -64, Ways: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestCacheGeometry(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 << 10, Ways: 4, Latency: 2}
	if c.Lines() != 512 || c.Sets() != 128 {
		t.Errorf("lines/sets = %d/%d", c.Lines(), c.Sets())
	}
}

func TestNewCachePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache accepted invalid config")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 65, Ways: 1})
}

func TestMESIStateString(t *testing.T) {
	for s, want := range map[MESIState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func smallCache() *Cache {
	// 8 lines, 2 ways -> 4 sets.
	return NewCache(CacheConfig{SizeBytes: 8 * LineSize, Ways: 2, Latency: 1})
}

func TestInsertLookupProbe(t *testing.T) {
	c := smallCache()
	if c.Lookup(7) != Invalid {
		t.Fatal("empty cache hit")
	}
	c.Insert(7, Exclusive)
	if c.Lookup(7) != Exclusive {
		t.Error("lookup state wrong")
	}
	if c.Probe(7) != Exclusive {
		t.Error("probe state wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestSetState(t *testing.T) {
	c := smallCache()
	c.Insert(3, Shared)
	if !c.SetState(3, Modified) {
		t.Error("SetState missed resident line")
	}
	if c.Probe(3) != Modified {
		t.Error("state not updated")
	}
	if !c.SetState(3, Invalid) {
		t.Error("invalidation missed")
	}
	if c.Probe(3) != Invalid || c.Len() != 0 {
		t.Error("line not invalidated")
	}
	if c.SetState(99, Shared) {
		t.Error("SetState hit a non-resident line")
	}
}

func TestEvictionReportsDirtyState(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways; lines 0,4,8 share set 0
	c.Insert(0, Modified)
	c.Insert(4, Shared)
	c.Lookup(4) // 0 becomes LRU
	ev := c.Insert(8, Exclusive)
	if !ev.Happened || ev.Line != 0 || ev.State != Modified {
		t.Errorf("eviction = %+v, want dirty line 0", ev)
	}
}

func TestProbeDoesNotPerturbLRU(t *testing.T) {
	c := smallCache()
	c.Insert(0, Shared)
	c.Insert(4, Shared) // set 0 full; 0 is LRU
	for i := 0; i < 5; i++ {
		c.Probe(0)
	}
	ev := c.Insert(8, Shared)
	if ev.Line != 0 {
		t.Errorf("probe perturbed LRU: evicted %d", ev.Line)
	}
}

func TestReinsertUpdatesState(t *testing.T) {
	c := smallCache()
	c.Insert(1, Shared)
	ev := c.Insert(1, Modified)
	if ev.Happened {
		t.Error("re-insert evicted")
	}
	if c.Probe(1) != Modified {
		t.Error("state not updated on re-insert")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Insert(1, Modified)
	c.Insert(2, Shared)
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush incomplete")
	}
}

// TestCacheCapacityInvariant: never more lines than capacity, never more
// than Ways per set.
func TestCacheCapacityInvariant(t *testing.T) {
	f := func(lines []uint16) bool {
		cfg := CacheConfig{SizeBytes: 16 * LineSize, Ways: 4, Latency: 1}
		c := NewCache(cfg)
		for _, l := range lines {
			c.Insert(Line(l), Shared)
			if c.Len() > cfg.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestInsertedLineIsResident: quick property that Insert makes a line
// immediately visible.
func TestInsertedLineIsResident(t *testing.T) {
	f := func(lines []uint16, probe uint16) bool {
		c := smallCache()
		for _, l := range lines {
			c.Insert(Line(l), Exclusive)
		}
		c.Insert(Line(probe), Modified)
		return c.Probe(Line(probe)) == Modified
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Insert installs a line in the given state, evicting the LRU way of its
// set if necessary, and returns the eviction (if any). Inserting a line
// that is already resident just updates its state and LRU position.
func (c *Cache) Insert(l Line, s MESIState) Eviction {
	c.clock++
	if p := c.idx.at(uint64(l)); p != nil && *p != 0 {
		ix := *p & wayMask
		c.meta[ix-1].lru = c.clock
		*p = ix | int32(s)<<wayBits
		return Eviction{}
	}
	return c.fill(l, s)
}

// Flush invalidates every line without write-backs (test helper).
func (c *Cache) Flush() {
	for i := range c.meta {
		if t := c.meta[i].tag; t != invalidTag {
			*c.idx.at(t) = 0
			c.meta[i].tag = invalidTag
		}
	}
}
