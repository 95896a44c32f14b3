package topology

import (
	"fmt"
)

// LevelSpec describes one level of a regular sharing hierarchy, innermost
// first. Fanout is how many children each domain of this level has: for the
// innermost level that is cores per domain, for every other level it is
// domains of the level below. Latency is the round-trip communication cost
// between two cores whose nearest common domain is this level.
type LevelSpec struct {
	Kind    Level
	Fanout  int
	Latency uint64
}

// BuildHierarchy constructs a regular machine of arbitrary depth from a
// list of level specs, innermost first; the implicit leaf level is the
// core. The outermost spec must be LevelMachine and the hierarchy must
// contain a LevelL2 somewhere: the memory system indexes its coherence
// domains by L2Domain, so a machine without one cannot be simulated.
// Domain IDs at every depth are sequential in core order, exactly like the
// classic Build numbering.
//
// It panics on malformed specs — presets are code, not input.
func BuildHierarchy(name string, levels []LevelSpec) *Machine {
	if len(levels) == 0 {
		panic("topology: BuildHierarchy needs at least one level")
	}
	if levels[len(levels)-1].Kind != LevelMachine {
		panic(fmt.Sprintf("topology: outermost level of %q must be machine, got %s",
			name, levels[len(levels)-1].Kind))
	}
	total := 1
	for i, l := range levels {
		if l.Fanout <= 0 {
			panic(fmt.Sprintf("topology: level %d of %q has fanout %d", i, name, l.Fanout))
		}
		if l.Kind == LevelCore {
			panic(fmt.Sprintf("topology: level %d of %q cannot be the core level (it is implicit)", i, name))
		}
		total *= l.Fanout
	}

	depth := len(levels) + 1 // + the implicit core level
	m := &Machine{
		Name:     name,
		kinds:    make([]Level, depth),
		domain:   make([][]int32, depth-1),
		levelLat: make([]uint64, depth),
		l2Domain: make([]int, total),
		chip:     make([]int, total),
		numa:     make([]int, total),
	}
	m.kinds[0] = LevelCore
	for d := 1; d < depth; d++ {
		spec := levels[d-1]
		m.kinds[d] = spec.Kind
		m.levelLat[d] = spec.Latency
	}

	// width[d] = cores per depth-d domain.
	width := make([]int, depth)
	width[0] = 1
	for d := 1; d < depth; d++ {
		width[d] = width[d-1] * levels[d-1].Fanout
	}
	for d := 1; d < depth-1; d++ {
		ids := make([]int32, total)
		for c := 0; c < total; c++ {
			ids[c] = int32(c / width[d])
		}
		m.domain[d] = ids
	}

	// The classic per-core views: L2 is required, chip falls back to the
	// die and then to the NUMA node (a die is a chip in a multi-chip
	// package; a single-die socket is its own chip), NUMA is optional.
	l2d := m.depthOf(LevelL2)
	if l2d < 0 {
		panic(fmt.Sprintf("topology: machine %q has no L2 level; the memory system requires one", name))
	}
	chipd := m.depthOf(LevelChip)
	if chipd < 0 {
		chipd = m.depthOf(LevelDie)
	}
	if chipd < 0 {
		chipd = m.depthOf(LevelNUMANode)
	}
	numad := m.depthOf(LevelNUMANode)
	for c := 0; c < total; c++ {
		m.l2Domain[c] = m.DomainAt(l2d, c)
		if chipd >= 0 {
			m.chip[c] = m.DomainAt(chipd, c)
		} else {
			m.chip[c] = -1
		}
		if numad >= 0 {
			m.numa[c] = m.DomainAt(numad, c)
		} else {
			m.numa[c] = -1
		}
	}
	return m
}

// depthOf returns the innermost depth holding a level of the given kind,
// or -1 when the hierarchy has none.
func (m *Machine) depthOf(kind Level) int {
	for d, k := range m.kinds {
		if k == kind {
			return d
		}
	}
	return -1
}

// MultiSocket builds a UMA multi-socket machine: sockets × l2PerSocket ×
// coresPerL2 cores, each socket one chip on a shared bus. It generalizes
// Harpertown to wider parts.
func MultiSocket(sockets, l2PerSocket, coresPerL2 int) *Machine {
	name := fmt.Sprintf("multisocket-%ds-%dl2-%dc", sockets, l2PerSocket, coresPerL2)
	return BuildHierarchy(name, []LevelSpec{
		{Kind: LevelL2, Fanout: coresPerL2, Latency: 8},
		{Kind: LevelChip, Fanout: l2PerSocket, Latency: 40},
		{Kind: LevelMachine, Fanout: sockets, Latency: 120},
	})
}

// MultiSocketNUMA builds the manycore shape of the scale-up studies: each
// socket is one NUMA node holding diesPerSocket dies, each die l2PerDie L2
// domains of coresPerL2 cores behind a die-level L3. Three cache levels
// plus NUMA gives the five-deep hierarchy (core, L2, die, socket, machine)
// that Schulz & Woydt-style multilevel mapping is built for.
func MultiSocketNUMA(sockets, diesPerSocket, l2PerDie, coresPerL2 int) *Machine {
	name := fmt.Sprintf("numasocket-%ds-%dd-%dl2-%dc", sockets, diesPerSocket, l2PerDie, coresPerL2)
	return BuildHierarchy(name, []LevelSpec{
		{Kind: LevelL2, Fanout: coresPerL2, Latency: 8},
		{Kind: LevelDie, Fanout: l2PerDie, Latency: 30},
		{Kind: LevelNUMANode, Fanout: diesPerSocket, Latency: 60},
		{Kind: LevelMachine, Fanout: sockets, Latency: 240},
	})
}

// Manycore builds the canonical manycore machine for a core count: 32
// cores per socket (2 dies × 4 L2 × 4 cores) and as many single-NUMA-node
// sockets as the count requires — 64 cores is 2 sockets, 256 is 8, 1024 is
// 32. The count must be a positive multiple of 32 and a power of two.
func Manycore(cores int) *Machine {
	if cores < 32 || cores%32 != 0 || cores&(cores-1) != 0 {
		panic(fmt.Sprintf("topology: Manycore wants a power-of-two multiple of 32 cores, got %d", cores))
	}
	m := MultiSocketNUMA(cores/32, 2, 4, 4)
	m.Name = fmt.Sprintf("manycore-%d", cores)
	return m
}
