package topology

import (
	"strings"
	"testing"
)

func TestHarpertownShape(t *testing.T) {
	m := Harpertown()
	if got := m.NumCores(); got != 8 {
		t.Fatalf("NumCores = %d, want 8", got)
	}
	// Figure 3: cores {0,1}, {2,3}, {4,5}, {6,7} share L2s; chips are
	// {0..3} and {4..7}.
	for c := 0; c < 8; c++ {
		if got := m.L2Domain(c); got != c/2 {
			t.Errorf("L2Domain(%d) = %d, want %d", c, got, c/2)
		}
		if got := m.chip[c]; got != c/4 {
			t.Errorf("chip of core %d = %d, want %d", c, got, c/4)
		}
		if m.NUMANode(c) != -1 {
			t.Errorf("UMA machine reports NUMA node for core %d", c)
		}
	}
	if !m.SameL2(0, 1) || m.SameL2(1, 2) {
		t.Error("L2 sharing wrong")
	}
	if !m.SameChip(0, 3) || m.SameChip(3, 4) {
		t.Error("chip sharing wrong")
	}
}

func TestCommonLevel(t *testing.T) {
	m := Harpertown()
	cases := []struct {
		a, b int
		want Level
	}{
		{3, 3, LevelCore},
		{0, 1, LevelL2},
		{0, 2, LevelChip},
		{0, 3, LevelChip},
		{0, 4, LevelMachine},
		{3, 7, LevelMachine},
	}
	for _, c := range cases {
		if got := m.CommonLevel(c.a, c.b); got != c.want {
			t.Errorf("CommonLevel(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	m := Harpertown()
	if m.Latency(0, 0) != 0 {
		t.Error("self latency should be 0")
	}
	l2 := m.Latency(0, 1)
	chip := m.Latency(0, 2)
	bus := m.Latency(0, 4)
	if !(l2 < chip && chip < bus) {
		t.Errorf("latency ordering violated: L2 %d, chip %d, bus %d", l2, chip, bus)
	}
	// Symmetry.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if m.Latency(a, b) != m.Latency(b, a) {
				t.Fatalf("asymmetric latency (%d,%d)", a, b)
			}
		}
	}
}

func TestGroupSizes(t *testing.T) {
	m := Harpertown()
	sizes := m.GroupSizes()
	if len(sizes) != 3 {
		t.Fatalf("GroupSizes = %v, want 3 levels", sizes)
	}
	for i, s := range sizes {
		if s != 2 {
			t.Errorf("GroupSizes[%d] = %d, want 2", i, s)
		}
	}
}

func TestRootCoversAllCores(t *testing.T) {
	m := Harpertown()
	cores := m.root.Cores()
	if len(cores) != 8 {
		t.Fatalf("root covers %d cores", len(cores))
	}
	for i, c := range cores {
		if c != i {
			t.Errorf("root cores[%d] = %d", i, c)
		}
	}
	// Children of the root are chips with 4 cores each.
	for _, chip := range m.root.Children {
		if chip.Level != LevelChip {
			t.Errorf("root child level = %v", chip.Level)
		}
		if len(chip.Cores()) != 4 {
			t.Errorf("chip has %d cores", len(chip.Cores()))
		}
	}
}

func TestNUMATopology(t *testing.T) {
	m := NUMA(4)
	if got := m.NumCores(); got != 16 {
		t.Fatalf("NUMA(4) cores = %d, want 16", got)
	}
	if m.NUMANode(0) != 0 || m.NUMANode(15) != 3 {
		t.Errorf("NUMA nodes: core0=%d core15=%d", m.NUMANode(0), m.NUMANode(15))
	}
	// Each node holds 4 cores (1 chip x 2 L2 x 2). Cores 0 and 2 share a
	// chip inside node 0; cores 0 and 5 live on different nodes.
	if got := m.CommonLevel(0, 2); got != LevelChip {
		t.Errorf("CommonLevel within node = %v", got)
	}
	if got := m.CommonLevel(0, 5); got != LevelMachine {
		t.Errorf("CommonLevel across nodes = %v", got)
	}
	// Cross-node latency must exceed intra-node latency.
	if !(m.Latency(0, 2) < m.Latency(0, 15)) {
		t.Errorf("NUMA latency ordering: intra %d, inter %d", m.Latency(0, 2), m.Latency(0, 15))
	}
	if len(m.GroupSizes()) != 4 {
		t.Errorf("NUMA group sizes = %v", m.GroupSizes())
	}
}

func TestNUMAClampsNodeCount(t *testing.T) {
	m := NUMA(0)
	if m.NumCores() != 4 {
		t.Errorf("NUMA(0) should clamp to one node, got %d cores", m.NumCores())
	}
}

func TestBuildPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build accepted an invalid spec")
		}
	}()
	Build("bad", Spec{Chips: 0, L2PerChip: 1, CoresPerL2: 1})
}

func TestString(t *testing.T) {
	s := Harpertown().String()
	for _, want := range []string{"harpertown-2s", "chip", "L2", "core"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestLevelString(t *testing.T) {
	if LevelL2.String() != "L2" || LevelChip.String() != "chip" {
		t.Error("level names wrong")
	}
	if !strings.Contains(Level(42).String(), "level") {
		t.Error("unknown level string")
	}
}

// CommonLevel returns the level of the nearest common sharing domain of two
// cores: LevelCore if a == b, LevelL2 if they share an L2, and so on.
func (m *Machine) CommonLevel(a, b int) Level {
	return m.kinds[m.commonDepth(a, b)]
}

// GroupSizes returns, from the leaves upward, the branching factors the
// hierarchical mapper must honor: how many cores share an L2, how many L2
// domains share a chip, and so on. For Harpertown this is [2, 2, 2]
// (2 cores per L2, 2 L2s per chip, 2 chips per machine).
func (m *Machine) GroupSizes() []int {
	var sizes []int
	n := m.root
	for len(n.Children) > 0 {
		sizes = append(sizes, len(n.Children))
		n = n.Children[0]
	}
	// sizes currently lists branching factors from the root down; the
	// mapper wants them leaf-up.
	for i, j := 0, len(sizes)-1; i < j; i, j = i+1, j-1 {
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}

// Cores returns the IDs of all cores in this subtree, in ascending order.
func (n *Node) Cores() []int {
	out := make([]int, len(n.cores))
	copy(out, n.cores)
	return out
}
