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

// TestRootCoversAllCores: every core sits in the one root domain, no two
// cores are further apart than the root's latency, and the root's children
// are two chips of four cores each.
func TestRootCoversAllCores(t *testing.T) {
	m := Harpertown()
	root := len(m.kinds) - 1
	perChip := map[int]int{}
	for c := 0; c < m.NumCores(); c++ {
		if got := m.DomainAt(root, c); got != 0 {
			t.Errorf("core %d: root domain %d", c, got)
		}
		for b := 0; b < m.NumCores(); b++ {
			if m.Latency(c, b) > m.levelLat[root] {
				t.Errorf("Latency(%d,%d) = %d exceeds the root's %d", c, b, m.Latency(c, b), m.levelLat[root])
			}
		}
		perChip[m.DomainAt(root-1, c)]++
	}
	if m.kinds[root-1] != LevelChip {
		t.Errorf("root child level = %v", m.kinds[root-1])
	}
	if len(perChip) != 2 || perChip[0] != 4 || perChip[1] != 4 {
		t.Errorf("cores per chip = %v, want 4 on each of chips 0 and 1", perChip)
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

// TestString checks the names a Harpertown machine is reported under: its
// own, and those of the levels core 0 shares with cores 0, 1, 2 and 4.
func TestString(t *testing.T) {
	m := Harpertown()
	if m.Name != "harpertown-2s" {
		t.Errorf("Name = %q", m.Name)
	}
	var names []string
	for _, b := range []int{0, 1, 2, 4} {
		names = append(names, m.CommonLevel(0, b).String())
	}
	if got, want := strings.Join(names, " "), "core L2 chip machine"; got != want {
		t.Errorf("levels = %q, want %q", got, want)
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
	n := m.NumCores()
	var sizes []int
	below := n // domains one depth down: at depth 0, one per core
	for d := 1; d < len(m.kinds); d++ {
		domains := m.DomainAt(d, n-1) + 1
		sizes = append(sizes, below/domains)
		below = domains
	}
	return sizes
}
