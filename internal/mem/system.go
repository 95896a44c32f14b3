package mem

import (
	"math/bits"

	"tlbmap/internal/metrics"
	"tlbmap/internal/topology"
)

// MemLatency is the simulated main-memory access latency in cycles.
const MemLatency = 200

// FSBOccupancy is the number of cycles one inter-chip coherence transaction
// occupies the shared front-side bus. All off-chip traffic — memory fills
// and cross-chip coherence — serializes on this bus, so a placement that
// generates heavy inter-chip traffic steals bus bandwidth from everyone and
// every bus user pays queueing delay — the "improving the use of
// interconnections" objective of Section III-A2.
const FSBOccupancy = 90

// MemOccupancy is the number of cycles one 64-byte memory fill occupies the
// front-side bus.
const MemOccupancy = 40

// RemoteMemPenalty is the extra latency, in cycles, of a memory fill served
// by a remote NUMA node (NUMA extension; never charged on UMA machines).
const RemoteMemPenalty = 120

// System is the coherent memory hierarchy of the simulated machine: one
// private write-through L1 data cache per core, one write-back MESI L2 per
// L2 sharing domain (a core pair on Harpertown), and a snooping interconnect
// among the L2s. Every coherence action takes the same path at every
// machine size: snoops visit the L2 domains the sharing directory lists,
// and the L1s above a domain are probed directly.
//
// Instruction caches are not modelled: as Section III-A1 notes, only data
// accesses matter for thread mapping, since code pages are effectively
// read-only after load.
//
// System is not safe for concurrent use; the simulation engine serializes
// all accesses.
type System struct {
	machine *topology.Machine
	l1s     []*Cache // per core
	l2s     []*Cache // per L2 domain
	// domainCores[d] lists the cores sharing L2 domain d, in ascending
	// order; the first is the domain's representative for latency
	// queries between a requesting core and a supplying domain.
	domainCores [][]int
	ctr         []*metrics.Counters // per core

	// fsbFreeAt is the cycle at which the shared front-side bus becomes
	// free; inter-chip transactions queue behind it.
	fsbFreeAt uint64

	// L2 sharing directory. A real snooping bus broadcasts every miss to
	// every L2; modelling that as a probe loop over all domains makes the
	// simulator's miss cost scale with machine size even though most
	// probes find nothing. The directory records, per physical line, the
	// exact set of L2 domains holding it, so the snoop paths visit only
	// actual holders — the simulated latencies and counters are those of
	// the broadcast because probes that would have missed contribute
	// neither. Holders are visited in ascending domain order, the
	// broadcast's: the first of several Shared holders supplies the line,
	// so the order fixes the transfer's latency. The set is l2words 64-bit
	// mask words per line: key l*l2words + w holds the bits of domains 64w
	// to 64w+63. It is a paged table, so a line never written holds
	// nothing.
	//
	// The L1s need no directory: every action that drops L1 copies is
	// confined to one L2 domain (a sibling store, inclusion on an L2
	// eviction, a domain's invalidation), whose few cores are probed
	// directly.
	l2words uint64
	l2dir   lineTable[uint64]

	// Interconnect geometry tables. Every coherence transaction charges
	// the latency between the requesting core and a supplying domain's
	// representative core, and asks whether the hop crosses a chip; both
	// answers are fixed by the topology, so they are computed once here
	// instead of walking the sharing tree per snoop. domLat[core*len(l2s)
	// + d] is Latency(core, domainCores[d][0]); domXChip is !SameChip of
	// the same pair.
	domLat   []uint32
	domXChip []bool

	// obs, when non-nil, receives every access and coherence transition
	// (see Observer). All hook sites are nil-guarded so the disabled cost
	// is one pointer comparison.
	obs Observer

	// frameNode records which NUMA node each physical frame's memory
	// lives on (NUMA extension), indexed by frame number; an unplaced
	// frame reads node 0. Only consulted on machines with NUMA nodes.
	frameNode lineTable[int32]
	numa      bool

	l1cfg, l2cfg CacheConfig
}

// NewSystem builds the hierarchy for a machine using the given cache
// geometries (use DefaultL1Config/DefaultL2Config for Table II).
func NewSystem(m *topology.Machine, l1cfg, l2cfg CacheConfig) *System {
	n := m.NumCores()
	numDomains := 0
	for c := 0; c < n; c++ {
		if d := m.L2Domain(c); d+1 > numDomains {
			numDomains = d + 1
		}
	}
	s := &System{
		machine:     m,
		l1s:         make([]*Cache, n),
		l2s:         make([]*Cache, numDomains),
		domainCores: make([][]int, numDomains),
		ctr:         make([]*metrics.Counters, n),
		l1cfg:       l1cfg,
		l2cfg:       l2cfg,
	}
	for c := 0; c < n; c++ {
		s.l1s[c] = NewCache(l1cfg)
		s.ctr[c] = &metrics.Counters{}
		d := m.L2Domain(c)
		s.domainCores[d] = append(s.domainCores[d], c)
	}
	for d := 0; d < numDomains; d++ {
		s.l2s[d] = NewCache(l2cfg)
	}
	s.l2words = uint64(numDomains+63) / 64
	s.domLat = make([]uint32, n*numDomains)
	s.domXChip = make([]bool, n*numDomains)
	for c := 0; c < n; c++ {
		for d := 0; d < numDomains; d++ {
			rep := s.domainCores[d][0]
			s.domLat[c*numDomains+d] = uint32(m.Latency(c, rep))
			s.domXChip[c*numDomains+d] = !m.SameChip(c, rep)
		}
	}
	s.numa = m.NUMANode(0) >= 0
	return s
}

// repLatency returns the interconnect latency from core to domain d's
// representative and whether the hop crosses a chip boundary.
func (s *System) repLatency(core, d int) (uint64, bool) {
	o := core*len(s.l2s) + d
	return uint64(s.domLat[o]), s.domXChip[o]
}

// remoteHolders returns mask word w of the L2 domains other than d that
// hold line l: bit i stands for domain 64w+i.
func (s *System) remoteHolders(l Line, w uint64, d int) uint64 {
	m := s.l2dir.get(uint64(l)*s.l2words + w)
	if w == uint64(d)/64 {
		m &^= 1 << (uint(d) % 64)
	}
	return m
}

func (s *System) l2dirSet(l Line, d int) {
	*s.l2dir.slot(uint64(l)*s.l2words + uint64(d)/64) |= 1 << (uint(d) % 64)
}

func (s *System) l2dirClear(l Line, d int) {
	if p := s.l2dir.at(uint64(l)*s.l2words + uint64(d)/64); p != nil {
		*p &^= 1 << (uint(d) % 64)
	}
}

// PlaceFrame records the NUMA node a physical frame's memory lives on.
// The engine calls it when a page is first walked, using the configured
// data-placement policy. It is a no-op on UMA machines.
func (s *System) PlaceFrame(frame uint64, node int) {
	if !s.numa {
		return
	}
	*s.frameNode.slot(frame) = int32(node)
}

// NUMA reports whether the machine has NUMA nodes.
func (s *System) NUMA() bool { return s.numa }

// memFill charges one memory access by core for line l: bus occupancy,
// base DRAM latency, and — on NUMA machines — the remote-node penalty,
// with the local/remote split counted.
func (s *System) memFill(ctr *metrics.Counters, core int, l Line, now uint64) uint64 {
	lat := s.fsbAcquireFor(now, MemOccupancy)
	lat += MemLatency
	if s.numa {
		frame := uint64(l) >> 6 // LineShift == 6, PageShift == 12
		if int(s.frameNode.get(frame)) == s.machine.NUMANode(core) {
			ctr.Inc(metrics.LocalMemAccesses)
		} else {
			ctr.Inc(metrics.RemoteMemAccesses)
			lat += RemoteMemPenalty
		}
	}
	return lat
}

// Counters returns the per-core counter bank (live; not a copy).
func (s *System) Counters(core int) *metrics.Counters { return s.ctr[core] }

// TotalCounters returns the sum of all per-core banks.
func (s *System) TotalCounters() metrics.Counters {
	var total metrics.Counters
	for _, c := range s.ctr {
		total.Merge(c)
	}
	return total
}

// L1 exposes a core's L1 cache (tests and inspection).
func (s *System) L1(core int) *Cache { return s.l1s[core] }

// L2 exposes a domain's L2 cache (tests and inspection).
func (s *System) L2(domain int) *Cache { return s.l2s[domain] }

// NumDomains returns the number of L2 sharing domains.
func (s *System) NumDomains() int { return len(s.l2s) }

// Read simulates a data load of the given physical line by a core at the
// given cycle and returns the latency in cycles. now is the requesting
// core's clock; it orders transactions on the shared front-side bus.
func (s *System) Read(core int, l Line, now uint64) uint64 {
	ctr := s.ctr[core]
	if s.l1s[core].Lookup(l) != Invalid {
		ctr.Inc(metrics.L1Hits)
		if s.obs != nil {
			s.obs.OnRead(core, l, SrcL1, -1)
		}
		return s.l1cfg.Latency
	}
	ctr.Inc(metrics.L1Misses)
	lat := s.l1cfg.Latency + s.l2cfg.Latency

	src, supplier := SrcL2, -1
	d := s.machine.L2Domain(core)
	l2 := s.l2s[d]
	if l2.Lookup(l) != Invalid {
		ctr.Inc(metrics.L2Hits)
	} else {
		ctr.Inc(metrics.L2Misses)
		var extra uint64
		extra, src, supplier = s.fetchLine(core, d, l, now, false)
		lat += extra
	}
	// Fill the L1; write-through L1s never hold dirty data, so the
	// eviction is silent. The line is known non-resident: this L1 just
	// missed it, and the fetch path only invalidates remote domains.
	ev := s.l1s[core].insertNew(l, Shared)
	if s.obs != nil {
		if ev.Happened {
			s.obs.OnL1Drop(core, ev.Line)
		}
		s.obs.OnL1Install(core, l)
		s.obs.OnRead(core, l, src, supplier)
	}
	return lat
}

// Write simulates a data store of the given physical line by a core at the
// given cycle and returns the latency in cycles. L1s are write-through with
// no-write-allocate; L2s are write-back MESI.
func (s *System) Write(core int, l Line, now uint64) uint64 {
	ctr := s.ctr[core]
	l1Hit := s.l1s[core].Lookup(l) != Invalid
	if l1Hit {
		ctr.Inc(metrics.L1Hits)
	} else {
		ctr.Inc(metrics.L1Misses)
	}
	lat := s.l1cfg.Latency + s.l2cfg.Latency

	src, supplier := SrcL2, -1
	d := s.machine.L2Domain(core)
	l2 := s.l2s[d]
	// One set search covers both the state read and the M-upgrade write
	// (the way index stays valid: nothing below inserts into this L2
	// before the transition).
	w, st := l2.lookupWay(l)
	switch st {
	case Modified:
		// Already owned; nothing to do.
	case Exclusive:
		l2.setStateAt(w, l, Modified)
		if s.obs != nil {
			s.obs.OnL2State(d, l, Exclusive, Modified)
		}
	case Shared:
		// Upgrade: invalidate every remote copy (the MESI invalidation
		// storm of Section III-A1 that a good mapping minimizes).
		lat += s.invalidateRemote(core, d, l, now)
		l2.setStateAt(w, l, Modified)
		if s.obs != nil {
			s.obs.OnL2State(d, l, Shared, Modified)
		}
	case Invalid:
		ctr.Inc(metrics.L2Misses)
		var extra uint64
		extra, src, supplier = s.fetchLine(core, d, l, now, true)
		lat += extra
	}

	// Keep sibling L1s inside the same L2 domain coherent: a store by one
	// core invalidates the line in the other cores' private L1s.
	for _, peer := range s.domainCores[d] {
		if peer != core && s.l1s[peer].SetState(l, Invalid) {
			ctr.Inc(metrics.Invalidations)
			if s.obs != nil {
				s.obs.OnL1Drop(peer, l)
			}
		}
	}
	if s.obs != nil {
		s.obs.OnWrite(core, l, src, supplier)
	}
	return lat
}

// fetchLine resolves an L2 miss over the snooping interconnect. exclusive
// selects a BusRdX (write miss: remote copies are invalidated) versus a
// BusRd (read miss: remote copies are downgraded to Shared). It returns the
// extra latency beyond the L2 access and installs the line in the
// requester's L2, reporting where the data came from (SrcCache with the
// supplying domain, or SrcMemory).
func (s *System) fetchLine(core, d int, l Line, now uint64, exclusive bool) (uint64, Source, int) {
	ctr := s.ctr[core]
	var lat uint64
	supplier := -1
	for w := uint64(0); w < s.l2words; w++ {
		for m := s.remoteHolders(l, w, d); m != 0; m &= m - 1 {
			supplier = s.snoopDomain(ctr, int(w)*64+bits.TrailingZeros64(m), l, exclusive, supplier)
		}
	}

	newState := Exclusive
	if exclusive {
		newState = Modified
	} else if supplier >= 0 {
		newState = Shared
	}

	src := SrcMemory
	if supplier >= 0 {
		// Cache-to-cache transfer: the snoop transaction of Figure 8.
		src = SrcCache
		ctr.Inc(metrics.SnoopTransactions)
		hop, xchip := s.repLatency(core, supplier)
		lat += hop
		if !xchip {
			ctr.Inc(metrics.IntraChipTraffic)
		} else {
			ctr.Inc(metrics.InterChipTraffic)
			lat += s.fsbAcquire(now + lat)
		}
	} else {
		ctr.Inc(metrics.MemoryReads)
		lat += s.memFill(ctr, core, l, now+lat)
	}

	// Known non-resident: this L2 just missed the line.
	ev := s.l2s[d].insertNew(l, newState)
	s.l2dirSet(l, d)
	if ev.Happened {
		s.l2dirClear(ev.Line, d)
		if ev.State == Modified {
			ctr.Inc(metrics.MemoryWrites)
			if s.obs != nil {
				s.obs.OnWriteBack(d, ev.Line)
			}
		}
		if s.obs != nil {
			s.obs.OnL2Evict(d, ev.Line, ev.State)
		}
		// Enforce inclusion: drop the evicted line from the domain's L1s.
		for _, peer := range s.domainCores[d] {
			if s.l1s[peer].SetState(ev.Line, Invalid) && s.obs != nil {
				s.obs.OnL1Drop(peer, ev.Line)
			}
		}
	}
	if s.obs != nil {
		s.obs.OnL2Install(d, l, newState, src, supplier)
	}
	return lat, src, supplier
}

// snoopDomain resolves one holder domain's part in a snoop: it reads the
// state of domain d2's copy, which the sharing directory lists, and
// invalidates it (BusRdX) or downgrades it (BusRd). It threads the
// supplier through the holders so the Modified holder — or else the first
// holder — supplies the line. It is a plain method rather than a closure
// in fetchLine so the per-holder call passes its state in registers.
func (s *System) snoopDomain(ctr *metrics.Counters, d2 int, l Line, exclusive bool, supplier int) int {
	st := s.l2s[d2].Probe(l)
	if supplier == -1 || st == Modified {
		supplier = d2
	}
	if exclusive {
		// Invalidate every holder on a write miss.
		s.invalidateDomain(ctr, d2, l)
	} else if st != Shared {
		// Downgrade E/M to S on a read miss; a Modified supplier
		// writes the dirty line back as part of the transfer.
		if st == Modified {
			ctr.Inc(metrics.MemoryWrites)
			if s.obs != nil {
				s.obs.OnWriteBack(d2, l)
			}
		}
		s.l2s[d2].SetState(l, Shared)
		if s.obs != nil {
			s.obs.OnL2State(d2, l, st, Shared)
		}
	}
	return supplier
}

// invalidateRemote invalidates the line in every other L2 domain holding
// it (and the L1s above them), counting one invalidation per dropped copy,
// and returns the interconnect latency of the farthest invalidation plus
// any front-side-bus queueing delay.
func (s *System) invalidateRemote(core, d int, l Line, now uint64) uint64 {
	ctr := s.ctr[core]
	var lat uint64
	crossChip := false
	for w := uint64(0); w < s.l2words; w++ {
		for m := s.remoteHolders(l, w, d); m != 0; m &= m - 1 {
			d2 := int(w)*64 + bits.TrailingZeros64(m)
			s.invalidateDomain(ctr, d2, l)
			hop, xchip := s.repLatency(core, d2)
			if hop > lat {
				lat = hop
			}
			if !xchip {
				ctr.Inc(metrics.IntraChipTraffic)
			} else {
				ctr.Inc(metrics.InterChipTraffic)
				crossChip = true
			}
		}
	}
	if crossChip {
		lat += s.fsbAcquire(now + lat)
	}
	return lat
}

// fsbAcquire reserves the shared front-side bus for one inter-chip
// coherence transaction starting no earlier than now, returning the
// queueing delay the requester suffers if the bus is still busy.
func (s *System) fsbAcquire(now uint64) uint64 {
	return s.fsbAcquireFor(now, FSBOccupancy)
}

// fsbAcquireFor reserves the bus for a transaction of the given occupancy.
func (s *System) fsbAcquireFor(now, occupancy uint64) uint64 {
	var wait uint64
	if s.fsbFreeAt > now {
		wait = s.fsbFreeAt - now
		now = s.fsbFreeAt
	}
	s.fsbFreeAt = now + occupancy
	return wait
}

// invalidateDomain drops a line from one L2 domain and its L1s, counting
// each dropped copy as a coherence invalidation.
func (s *System) invalidateDomain(ctr *metrics.Counters, d2 int, l Line) {
	// Drop the L1 copies first so that, when the L2 invalidation event
	// fires, the observers see the domain's invalidation as one atomic
	// action with inclusion already restored.
	for _, c2 := range s.domainCores[d2] {
		if s.l1s[c2].SetState(l, Invalid) {
			ctr.Inc(metrics.Invalidations)
			if s.obs != nil {
				s.obs.OnL1Drop(c2, l)
			}
		}
	}
	var old MESIState
	if s.obs != nil {
		old = s.l2s[d2].Probe(l)
	}
	if s.l2s[d2].SetState(l, Invalid) {
		ctr.Inc(metrics.Invalidations)
		if s.obs != nil {
			s.obs.OnL2State(d2, l, old, Invalid)
		}
	}
	s.l2dirClear(l, d2)
}
