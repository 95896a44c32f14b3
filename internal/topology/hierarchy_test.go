package topology

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestHierarchyShapes is the table-driven shape check of the new
// generators: core counts, depth, level kinds, domain widths and the
// classic per-core views.
func TestHierarchyShapes(t *testing.T) {
	cases := []struct {
		machine *Machine
		cores   int
		depth   int
		kinds   []Level
		// perCore spot-checks DomainAt against c / width for every depth.
		widths []int
	}{
		{
			machine: MultiSocket(2, 2, 2), // Harpertown-shaped
			cores:   8, depth: 4,
			kinds:  []Level{LevelCore, LevelL2, LevelChip, LevelMachine},
			widths: []int{1, 2, 4, 8},
		},
		{
			machine: MultiSocket(4, 2, 2),
			cores:   16, depth: 4,
			kinds:  []Level{LevelCore, LevelL2, LevelChip, LevelMachine},
			widths: []int{1, 2, 4, 16},
		},
		{
			machine: MultiSocketNUMA(2, 2, 4, 4),
			cores:   64, depth: 5,
			kinds:  []Level{LevelCore, LevelL2, LevelDie, LevelNUMANode, LevelMachine},
			widths: []int{1, 4, 16, 32, 64},
		},
		{
			machine: Manycore(64),
			cores:   64, depth: 5,
			kinds:  []Level{LevelCore, LevelL2, LevelDie, LevelNUMANode, LevelMachine},
			widths: []int{1, 4, 16, 32, 64},
		},
		{
			machine: Manycore(256),
			cores:   256, depth: 5,
			kinds:  []Level{LevelCore, LevelL2, LevelDie, LevelNUMANode, LevelMachine},
			widths: []int{1, 4, 16, 32, 256},
		},
		{
			machine: Manycore(1024),
			cores:   1024, depth: 5,
			kinds:  []Level{LevelCore, LevelL2, LevelDie, LevelNUMANode, LevelMachine},
			widths: []int{1, 4, 16, 32, 1024},
		},
	}
	for _, tc := range cases {
		m := tc.machine
		t.Run(m.Name, func(t *testing.T) {
			if got := m.NumCores(); got != tc.cores {
				t.Fatalf("NumCores = %d, want %d", got, tc.cores)
			}
			if got := m.Depth(); got != tc.depth {
				t.Fatalf("Depth = %d, want %d", got, tc.depth)
			}
			for d, want := range tc.kinds {
				if got := m.KindAt(d); got != want {
					t.Fatalf("KindAt(%d) = %s, want %s", d, got, want)
				}
			}
			for d := 0; d < tc.depth; d++ {
				for _, c := range []int{0, 1, tc.cores/2 - 1, tc.cores / 2, tc.cores - 1} {
					want := c / tc.widths[d]
					if d == tc.depth-1 {
						want = 0 // the root spans everything
					}
					if got := m.DomainAt(d, c); got != want {
						t.Fatalf("DomainAt(%d, %d) = %d, want %d", d, c, got, want)
					}
				}
			}
			// Classic views stay consistent with the hierarchy.
			for _, c := range []int{0, tc.cores - 1} {
				if m.L2Domain(c) != c/tc.widths[1] {
					t.Fatalf("L2Domain(%d) = %d, want %d", c, m.L2Domain(c), c/tc.widths[1])
				}
			}
			// Leaf count through the explicit tree must agree too.
			if got := len(m.GroupSizes()); got == 0 {
				t.Fatalf("GroupSizes came back empty")
			}
		})
	}
}

// TestDieFallsBackToChip: a hierarchy with dies but no explicit chip
// level must expose the die as the chip view, keeping Chip()-based
// accounting meaningful on multi-die parts.
func TestDieFallsBackToChip(t *testing.T) {
	m := MultiSocketNUMA(2, 2, 2, 2)
	// 16 cores: die width 4, NUMA width 8.
	if got := m.Chip(0); got != 0 {
		t.Fatalf("Chip(0) = %d, want 0", got)
	}
	if got := m.Chip(5); got != 1 {
		t.Fatalf("Chip(5) = %d, want die 1", got)
	}
	if got := m.NUMANode(9); got != 1 {
		t.Fatalf("NUMANode(9) = %d, want 1", got)
	}
}

// TestDistanceMatrixProperties checks the metric sanity of the derived
// distance matrix on each canonical shape: zero diagonal, symmetry, and
// the ultrametric (strong triangle) inequality every sharing hierarchy
// satisfies — d(a,c) <= max(d(a,b), d(b,c)).
func TestDistanceMatrixProperties(t *testing.T) {
	for _, m := range []*Machine{
		MultiSocket(2, 2, 2),
		MultiSocketNUMA(2, 2, 2, 2),
		Manycore(64),
		Manycore(256),
		Manycore(1024),
	} {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			n := m.NumCores()
			dist := m.DistanceMatrix()
			if len(dist) != n {
				t.Fatalf("DistanceMatrix has %d rows, want %d", len(dist), n)
			}
			for a := 0; a < n; a++ {
				if dist[a][a] != 0 {
					t.Fatalf("dist[%d][%d] = %d, want 0", a, a, dist[a][a])
				}
				for b := a + 1; b < n; b++ {
					if dist[a][b] != dist[b][a] {
						t.Fatalf("asymmetric: dist[%d][%d]=%d dist[%d][%d]=%d",
							a, b, dist[a][b], b, a, dist[b][a])
					}
					if dist[a][b] == 0 {
						t.Fatalf("distinct cores %d,%d at distance 0", a, b)
					}
					if dist[a][b] != m.Latency(a, b) {
						t.Fatalf("dist[%d][%d]=%d but Latency=%d", a, b, dist[a][b], m.Latency(a, b))
					}
				}
			}
			// Ultrametric inequality: exhaustive up to 64 cores, randomized
			// triples beyond (full O(n³) at 1024 is ~10⁹ checks).
			check := func(a, b, c int) {
				ab, bc, ac := dist[a][b], dist[b][c], dist[a][c]
				lim := ab
				if bc > lim {
					lim = bc
				}
				if ac > lim {
					t.Fatalf("ultrametric violated: d(%d,%d)=%d > max(d(%d,%d)=%d, d(%d,%d)=%d)",
						a, c, ac, a, b, ab, b, c, bc)
				}
			}
			if n <= 64 {
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						for c := 0; c < n; c++ {
							check(a, b, c)
						}
					}
				}
				return
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 200_000; trial++ {
				check(rng.Intn(n), rng.Intn(n), rng.Intn(n))
			}
		})
	}
}

// TestLatencyMonotoneInDepth: a deeper (closer) common ancestor must
// never cost more than a shallower one, for every canonical shape.
func TestLatencyMonotoneInDepth(t *testing.T) {
	for _, m := range []*Machine{MultiSocket(2, 2, 2), Manycore(64)} {
		prev := uint64(0)
		for d := 1; d < m.Depth(); d++ {
			lat := m.levelLat[d]
			if lat < prev {
				t.Fatalf("%s: latency at depth %d (%d) below depth %d (%d)", m.Name, d, lat, d-1, prev)
			}
			prev = lat
		}
	}
}

// TestBuildHierarchyPanics: malformed level lists are programmer errors
// and must fail loudly at construction.
func TestBuildHierarchyPanics(t *testing.T) {
	cases := map[string][]LevelSpec{
		"empty": nil,
		"no-machine-root": {
			{Kind: LevelL2, Fanout: 2, Latency: 8},
			{Kind: LevelChip, Fanout: 2, Latency: 40},
		},
		"zero-fanout": {
			{Kind: LevelL2, Fanout: 0, Latency: 8},
			{Kind: LevelMachine, Fanout: 2, Latency: 120},
		},
		"explicit-core": {
			{Kind: LevelCore, Fanout: 2, Latency: 1},
			{Kind: LevelMachine, Fanout: 2, Latency: 120},
		},
		"no-l2": {
			{Kind: LevelChip, Fanout: 4, Latency: 40},
			{Kind: LevelMachine, Fanout: 2, Latency: 120},
		},
	}
	for name, levels := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("BuildHierarchy(%s) did not panic", name)
				}
			}()
			BuildHierarchy(name, levels)
		})
	}
}

// TestManycorePanicsOnBadCount: the preset's contract is a power-of-two
// multiple of 32.
func TestManycorePanicsOnBadCount(t *testing.T) {
	for _, n := range []int{0, 16, 48, 96, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Manycore(%d) did not panic", n)
				}
			}()
			Manycore(n)
		}()
	}
}

// TestDescribeGolden pins the canonical 64/256/1024-core shapes — level
// structure plus an FNV-64a hash of the full distance matrix — against
// golden files, so any change to the generators or the latency tables is
// a reviewed diff.
func TestDescribeGolden(t *testing.T) {
	for _, m := range []*Machine{Manycore(64), Manycore(256), Manycore(1024)} {
		name := fmt.Sprintf("%s.describe.golden", m.Name)
		got := []byte(m.Describe())
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run `go test ./internal/topology -update` to create it): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from its golden file.\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	}
}
