// Package topology models the hardware topology of the simulated machine:
// which cores share which levels of the memory hierarchy, and how expensive
// communication between two cores is.
//
// The paper evaluates a two-socket Intel Harpertown system (Figure 3): two
// chips with four cores each, where every pair of cores shares one L2 cache.
// The hierarchical mapping algorithm (Section V-A) walks this sharing tree
// from the leaves upward: the first matching round pairs threads onto
// L2-sharing core pairs, the second round groups pairs onto chips.
package topology

import "fmt"

// Level identifies one layer of the sharing hierarchy, from the individual
// core up to the whole machine.
type Level int

// Sharing levels, ordered from innermost (core) to outermost (machine).
const (
	LevelCore Level = iota
	LevelL2
	LevelChip
	LevelMachine
	LevelNUMANode // used only by NUMA topologies
	LevelDie      // a die inside a multi-chip package (L3 sharing domain)
)

func (l Level) String() string {
	switch l {
	case LevelCore:
		return "core"
	case LevelL2:
		return "L2"
	case LevelChip:
		return "chip"
	case LevelMachine:
		return "machine"
	case LevelNUMANode:
		return "numa-node"
	case LevelDie:
		return "die"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Machine is a built topology with fast distance queries.
//
// Internally a machine is a regular tree of arbitrary depth: kinds lists
// the level kind at each depth (kinds[0] is always LevelCore, the last
// entry the root), domain[d][core] is the ID of core's ancestor domain at
// depth d, and levelLat[d] is the communication cost between two cores
// whose nearest common domain sits at depth d. The classic accessors
// (L2Domain, Chip, NUMANode) are views onto specific depths, so every
// machine — the paper's Harpertown as much as a 1024-core multi-socket
// hierarchy — answers distance queries through the same code path.
type Machine struct {
	Name string
	// kinds[d] is the level kind at depth d, innermost first.
	kinds []Level
	// domain[d][core] is the depth-d ancestor ID of core, for
	// 0 < d < len(kinds)-1. domain[0] is nil (a core is its own ancestor)
	// and the root depth is omitted (every core shares it).
	domain [][]int32
	// levelLat[d] is the round-trip cost, in cycles, between two cores
	// whose nearest common domain is at depth d. levelLat[0] == 0.
	levelLat []uint64
	// l2Domain[i] is the ID of the L2 sharing domain of core i (or -1).
	l2Domain []int
	// chip[i] is the chip ID of core i (or -1).
	chip []int
	// numa[i] is the NUMA node of core i (or -1).
	numa []int
}

// NumCores returns the number of cores in the machine.
func (m *Machine) NumCores() int { return len(m.l2Domain) }

// L2Domain returns the ID of the L2 sharing domain that core belongs to,
// or -1 if the topology has no shared L2 level.
func (m *Machine) L2Domain(core int) int { return m.l2Domain[core] }

// NUMANode returns the NUMA node that core belongs to, or -1 for UMA
// machines.
func (m *Machine) NUMANode(core int) int { return m.numa[core] }

// SameL2 reports whether two cores share an L2 cache.
func (m *Machine) SameL2(a, b int) bool {
	return m.l2Domain[a] >= 0 && m.l2Domain[a] == m.l2Domain[b]
}

// SameChip reports whether two cores are on the same chip.
func (m *Machine) SameChip(a, b int) bool {
	return m.chip[a] >= 0 && m.chip[a] == m.chip[b]
}

// commonDepth returns the depth of the nearest common sharing domain of
// two cores: 0 if a == b, 1 if their depth-1 domains coincide, and so on
// up to the root depth. O(tree depth).
func (m *Machine) commonDepth(a, b int) int {
	if a == b {
		return 0
	}
	root := len(m.kinds) - 1
	for d := 1; d < root; d++ {
		if m.domain[d][a] == m.domain[d][b] {
			return d
		}
	}
	return root
}

// Latency returns the modelled round-trip communication cost, in cycles,
// between two cores. It is the cost charged by the coherence interconnect
// for a cache-to-cache transfer between them.
func (m *Machine) Latency(a, b int) uint64 {
	return m.levelLat[m.commonDepth(a, b)]
}

// DomainAt returns the ID of the depth-d ancestor domain of core: the core
// itself at depth 0, and domain 0 at the root depth.
func (m *Machine) DomainAt(depth, core int) int {
	if depth == 0 {
		return core
	}
	if depth == len(m.kinds)-1 {
		return 0
	}
	return int(m.domain[depth][core])
}

// Harpertown builds the topology of Figure 3: two chips, four cores per
// chip, each pair of cores sharing one 6 MiB L2. This matches both the
// simulated machine and the real 2x Xeon E5405 used in the paper.
//
// Latencies follow the spirit of the paper's CACTI-derived numbers: an L2
// shared between two cores makes their communication nearly free, intra-chip
// snoops are cheap, and inter-chip snoops cross the front-side bus.
func Harpertown() *Machine {
	return Build("harpertown-2s", Spec{
		Chips:       2,
		L2PerChip:   2,
		CoresPerL2:  2,
		L2Latency:   8,   // Table II
		ChipLatency: 40,  // intra-chip cache-to-cache transfer
		BusLatency:  120, // inter-chip transfer over the front-side bus
	})
}

// NUMA builds a four-node NUMA machine (future-work extension of the paper,
// Section VII). Each NUMA node is a Harpertown-style chip with local memory;
// remote-node transfers cost more than inter-chip transfers on the UMA
// machine.
func NUMA(nodes int) *Machine {
	if nodes < 1 {
		nodes = 1
	}
	return Build(fmt.Sprintf("numa-%dn", nodes), Spec{
		NUMANodes:   nodes,
		Chips:       1, // chips per NUMA node
		L2PerChip:   2,
		CoresPerL2:  2,
		L2Latency:   8,
		ChipLatency: 40,
		BusLatency:  90,
		NUMALatency: 240,
	})
}

// Spec describes a regular machine: NUMANodes x Chips x L2PerChip x
// CoresPerL2 cores. NUMANodes == 0 means a UMA machine.
type Spec struct {
	NUMANodes  int // 0 for UMA
	Chips      int // chips per machine (UMA) or per NUMA node
	L2PerChip  int
	CoresPerL2 int

	L2Latency   uint64 // cores sharing an L2
	ChipLatency uint64 // same chip, different L2
	BusLatency  uint64 // different chip (same NUMA node, if any)
	NUMALatency uint64 // different NUMA node
}

// Build constructs a Machine from a Spec. It panics on non-positive
// dimensions, which indicate a programming error in a preset. It is a
// thin wrapper over BuildHierarchy that preserves the historical level
// naming of the four-parameter machines.
func Build(name string, s Spec) *Machine {
	if s.Chips <= 0 || s.L2PerChip <= 0 || s.CoresPerL2 <= 0 {
		panic(fmt.Sprintf("topology: invalid spec %+v", s))
	}
	uma := s.NUMANodes == 0
	levels := []LevelSpec{
		{Kind: LevelL2, Fanout: s.CoresPerL2, Latency: s.L2Latency},
		{Kind: LevelChip, Fanout: s.L2PerChip, Latency: s.ChipLatency},
	}
	if uma {
		levels = append(levels, LevelSpec{Kind: LevelMachine, Fanout: s.Chips, Latency: s.BusLatency})
	} else {
		levels = append(levels,
			LevelSpec{Kind: LevelNUMANode, Fanout: s.Chips, Latency: s.BusLatency},
			LevelSpec{Kind: LevelMachine, Fanout: s.NUMANodes, Latency: s.NUMALatency})
	}
	return BuildHierarchy(name, levels)
}
