package mem

import (
	"testing"

	"tlbmap/internal/metrics"
	"tlbmap/internal/topology"
)

func newSystem() *System {
	// Small caches keep the tests focused on protocol behavior.
	l1 := CacheConfig{SizeBytes: 4 * LineSize, Ways: 2, Latency: 2}
	l2 := CacheConfig{SizeBytes: 16 * LineSize, Ways: 4, Latency: 8}
	return NewSystem(topology.Harpertown(), l1, l2)
}

func TestSystemShape(t *testing.T) {
	s := newSystem()
	if s.NumDomains() != 4 {
		t.Errorf("domains = %d, want 4", s.NumDomains())
	}
}

func TestColdReadGoesToMemoryExclusive(t *testing.T) {
	s := newSystem()
	lat := s.Read(0, 100, 0)
	if lat < MemLatency {
		t.Errorf("cold read latency %d below memory latency", lat)
	}
	c := s.Counters(0)
	if c.Get(metrics.L1Misses) != 1 || c.Get(metrics.L2Misses) != 1 || c.Get(metrics.MemoryReads) != 1 {
		t.Errorf("cold read counters: %s", c.String())
	}
	if s.L2(0).Probe(100) != Exclusive {
		t.Errorf("first reader state = %v, want E", s.L2(0).Probe(100))
	}
}

func TestSecondReadHitsL1(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0)
	lat := s.Read(0, 100, 10)
	if lat != 2 {
		t.Errorf("L1 hit latency = %d, want 2", lat)
	}
	if s.Counters(0).Get(metrics.L1Hits) != 1 {
		t.Error("L1 hit not counted")
	}
}

func TestReadSharingDowngradesToShared(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0) // domain 0: E
	lat := s.Read(2, 100, 10)
	if lat >= MemLatency {
		t.Errorf("remote-supplied read cost %d (should be cheaper than memory)", lat)
	}
	if s.Counters(2).Get(metrics.SnoopTransactions) != 1 {
		t.Error("snoop transaction not counted")
	}
	if s.L2(0).Probe(100) != Shared || s.L2(1).Probe(100) != Shared {
		t.Errorf("states after read sharing: %v/%v", s.L2(0).Probe(100), s.L2(1).Probe(100))
	}
	// Same-chip transfer counts as intra-chip traffic.
	if s.Counters(2).Get(metrics.IntraChipTraffic) != 1 {
		t.Error("intra-chip traffic not counted")
	}
}

func TestCrossChipTransferCountsInterChip(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0)
	s.Read(4, 100, 10) // core 4 is on the other chip
	if s.Counters(4).Get(metrics.InterChipTraffic) != 1 {
		t.Error("inter-chip traffic not counted")
	}
}

func TestWriteUpgradeInvalidatesRemoteCopies(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0)
	s.Read(2, 100, 1)
	s.Read(4, 100, 2) // three domains hold the line Shared
	base := s.Counters(0).Get(metrics.Invalidations)
	s.Write(0, 100, 3)
	inv := s.Counters(0).Get(metrics.Invalidations) - base
	// Two remote L2 copies die; L1 copies of cores 2 and 4 die too.
	if inv < 2 {
		t.Errorf("invalidations = %d, want >= 2", inv)
	}
	if s.L2(0).Probe(100) != Modified {
		t.Errorf("writer state = %v, want M", s.L2(0).Probe(100))
	}
	if s.L2(1).Probe(100) != Invalid || s.L2(2).Probe(100) != Invalid {
		t.Error("remote copies not invalidated")
	}
	if s.L1(2).Probe(100) != Invalid || s.L1(4).Probe(100) != Invalid {
		t.Error("remote L1 copies not invalidated")
	}
}

func TestWriteMissInvalidatesAndTakesOwnership(t *testing.T) {
	s := newSystem()
	s.Read(2, 100, 0) // domain 1 holds E
	s.Write(0, 100, 1)
	if s.L2(0).Probe(100) != Modified {
		t.Error("writer did not take ownership")
	}
	if s.L2(1).Probe(100) != Invalid {
		t.Error("previous owner not invalidated")
	}
	if s.Counters(0).Get(metrics.SnoopTransactions) != 1 {
		t.Error("write miss with remote supplier should count a snoop")
	}
}

func TestExclusiveWriteIsSilent(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0) // E
	base := s.Counters(0).Snapshot()
	s.Write(0, 100, 1) // E -> M silently
	if c := s.Counters(0); c.Get(metrics.Invalidations) != base.Get(metrics.Invalidations) ||
		c.Get(metrics.SnoopTransactions) != base.Get(metrics.SnoopTransactions) {
		t.Errorf("silent upgrade generated traffic: %s, before %s", c.String(), base.String())
	}
	if s.L2(0).Probe(100) != Modified {
		t.Error("state not M")
	}
}

func TestL1PeerInvalidationWithinDomain(t *testing.T) {
	s := newSystem()
	s.Read(0, 100, 0)
	s.Read(1, 100, 1) // cores 0 and 1 share the L2; both L1s hold the line
	base := s.Counters(0).Get(metrics.Invalidations)
	s.Write(0, 100, 2)
	if s.L1(1).Probe(100) != Invalid {
		t.Error("sibling L1 copy survived a write")
	}
	if s.Counters(0).Get(metrics.Invalidations)-base != 1 {
		t.Error("sibling L1 invalidation not counted once")
	}
	// The L2 line stays valid for the domain.
	if s.L2(0).Probe(100) != Modified {
		t.Error("domain L2 state wrong")
	}
}

func TestDirtyReadSharingWritesBack(t *testing.T) {
	s := newSystem()
	s.Write(0, 100, 0) // M in domain 0
	base := s.Counters(2).Get(metrics.MemoryWrites)
	s.Read(2, 100, 1)
	if s.Counters(2).Get(metrics.MemoryWrites)-base != 1 {
		t.Error("dirty supplier should write back on downgrade")
	}
	if s.L2(0).Probe(100) != Shared {
		t.Error("dirty supplier not downgraded")
	}
}

func TestL2EvictionWritesBackDirtyAndBackInvalidatesL1(t *testing.T) {
	l1 := CacheConfig{SizeBytes: 4 * LineSize, Ways: 4, Latency: 2}
	l2 := CacheConfig{SizeBytes: 4 * LineSize, Ways: 1, Latency: 8} // direct-mapped, 4 sets
	s := NewSystem(topology.Harpertown(), l1, l2)
	s.Write(0, 0, 0) // set 0, dirty
	s.Read(0, 0, 1)  // pull into L1 as well
	if s.L1(0).Probe(0) == Invalid {
		t.Fatal("test setup: line not in L1")
	}
	base := s.Counters(0).Get(metrics.MemoryWrites)
	s.Read(0, 4, 2) // set 0 again: evicts dirty line 0
	if s.Counters(0).Get(metrics.MemoryWrites)-base != 1 {
		t.Error("dirty eviction did not write back")
	}
	if s.L1(0).Probe(0) != Invalid {
		t.Error("inclusion violated: evicted L2 line still in L1")
	}
}

func TestFSBQueueing(t *testing.T) {
	s := newSystem()
	// Create a line held Modified on chip 1; then chip-0 cores fetch it
	// back-to-back at the same instant: the second must queue on the bus.
	s.Write(4, 100, 0)
	s.Write(5, 101, 0)
	lat1 := s.Read(0, 100, 1000)
	lat2 := s.Read(2, 101, 1000)
	if lat2 <= lat1 {
		t.Errorf("concurrent inter-chip transfers should queue: lat1=%d lat2=%d", lat1, lat2)
	}
	if lat2-lat1 < FSBOccupancy/2 {
		t.Errorf("queueing delay too small: %d", lat2-lat1)
	}
}

func TestMemoryFillsOccupyFSB(t *testing.T) {
	s := newSystem()
	lat1 := s.Read(0, 200, 0)
	lat2 := s.Read(2, 300, 0) // distinct cold lines, same instant
	if lat2 <= lat1 {
		t.Errorf("concurrent memory fills should queue on the bus: %d vs %d", lat1, lat2)
	}
}

func TestTotalCountersAggregates(t *testing.T) {
	s := newSystem()
	s.Read(0, 1, 0)
	s.Read(7, 2, 0)
	total := s.TotalCounters()
	if total.Get(metrics.L2Misses) != 2 || total.Get(metrics.MemoryReads) != 2 {
		t.Errorf("totals wrong: %s", total.String())
	}
}

// TestPingPong reproduces the invalidation-miss scenario of Section
// III-A1: a writer and a reader alternating on one line. Placed on the
// same L2 the traffic vanishes; placed across chips every round costs an
// invalidation plus a snoop.
func TestPingPong(t *testing.T) {
	run := func(writer, reader int) (inv, snoop uint64) {
		s := newSystem()
		for i := 0; i < 10; i++ {
			s.Write(writer, 500, uint64(i*1000))
			s.Read(reader, 500, uint64(i*1000+500))
		}
		total := s.TotalCounters()
		return total.Get(metrics.Invalidations), total.Get(metrics.SnoopTransactions)
	}
	sameL2Inv, sameL2Snoop := run(0, 1)
	crossInv, crossSnoop := run(0, 4)
	if crossInv <= sameL2Inv {
		t.Errorf("cross-chip ping-pong should invalidate more: %d vs %d", crossInv, sameL2Inv)
	}
	if crossSnoop <= sameL2Snoop {
		t.Errorf("cross-chip ping-pong should snoop more: %d vs %d", crossSnoop, sameL2Snoop)
	}
}
