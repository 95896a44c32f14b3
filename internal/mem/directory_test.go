package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/topology"
)

// TestDirectoryMatchesBroadcast replays a random Read/Write mix through two
// identically-configured Systems — one with the sharing directories active,
// one forced onto the original probe-every-domain broadcast loops — and
// requires identical latencies per operation, identical counters, identical
// cache contents and an identical front-side-bus schedule. The directories
// are an index over the snoop paths, never a semantic change. Lines are
// drawn from three bands: one inside the first chunk of the paged tables,
// and two that straddle a chunk boundary with untouched chunks between
// them, so chunk allocation and the chunk hop are on the checked path.
func TestDirectoryMatchesBroadcast(t *testing.T) {
	l1 := CacheConfig{SizeBytes: 8 * LineSize, Ways: 2, Latency: 2}
	l2 := CacheConfig{SizeBytes: 32 * LineSize, Ways: 4, Latency: 8}
	bands := [][2]int{{0, 96}, {1000, 1101}, {1<<20 + 1000, 1<<20 + 1101}}
	touched := map[int]bool{}
	for _, b := range bands {
		for c := b[0] >> chunkBits; c <= (b[1]-1)>>chunkBits; c++ {
			touched[c] = true
		}
	}
	for _, mk := range []struct {
		name string
		m    func() *topology.Machine
	}{
		{"harpertown", topology.Harpertown},
		{"numa", func() *topology.Machine { return topology.NUMA(2) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			dir := NewSystem(mk.m(), l1, l2)
			ref := NewSystem(mk.m(), l1, l2)
			ref.l2dirOK, ref.l1dirOK = false, false
			if !dir.l2dirOK || !dir.l1dirOK {
				t.Fatal("directories not active on a small machine")
			}
			ncores := mk.m().NumCores()
			rng := rand.New(rand.NewSource(11))
			for op := 0; op < 30000; op++ {
				core := rng.Intn(ncores)
				b := bands[rng.Intn(len(bands))]
				l := Line(b[0] + rng.Intn(b[1]-b[0]))
				now := uint64(op) * 3
				if rng.Intn(3) == 0 {
					got, want := dir.Write(core, l, now), ref.Write(core, l, now)
					if got != want {
						t.Fatalf("op %d: Write(%d, %d) latency %d, want %d", op, core, l, got, want)
					}
				} else {
					got, want := dir.Read(core, l, now), ref.Read(core, l, now)
					if got != want {
						t.Fatalf("op %d: Read(%d, %d) latency %d, want %d", op, core, l, got, want)
					}
				}
				if dir.fsbFreeAt != ref.fsbFreeAt {
					t.Fatalf("op %d: fsbFreeAt %d, want %d", op, dir.fsbFreeAt, ref.fsbFreeAt)
				}
				if op%1000 == 0 {
					if err := validateDirectories(dir); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := validateDirectories(dir); err != nil {
				t.Fatal(err)
			}
			for _, tab := range []*lineTable[uint64]{&dir.l1dir, &dir.l2dir} {
				for c, chunk := range tab.dir {
					if chunk != nil && !touched[c] {
						t.Fatalf("directory chunk %d allocated, but no drawn line falls in it", c)
					}
				}
			}
			for c := 0; c < ncores; c++ {
				if *dir.Counters(c) != *ref.Counters(c) {
					t.Fatalf("core %d counters diverge:\n  dir: %s\n  ref: %s",
						c, dir.Counters(c).String(), ref.Counters(c).String())
				}
			}
			for c := 0; c < ncores; c++ {
				compareCaches(t, "L1", c, dir.L1(c), ref.L1(c))
			}
			for d := 0; d < dir.NumDomains(); d++ {
				compareCaches(t, "L2", d, dir.L2(d), ref.L2(d))
			}
		})
	}
}

func compareCaches(t *testing.T, level string, idx int, a, b *Cache) {
	t.Helper()
	got := map[Line]MESIState{}
	a.Each(func(l Line, s MESIState) { got[l] = s })
	want := map[Line]MESIState{}
	b.Each(func(l Line, s MESIState) { want[l] = s })
	if len(got) != len(want) {
		t.Fatalf("%s %d holds %d lines, want %d", level, idx, len(got), len(want))
	}
	for l, s := range want {
		if got[l] != s {
			t.Fatalf("%s %d line %d state %v, want %v", level, idx, l, got[l], s)
		}
	}
}

// validateDirectories cross-checks the sharing directories against the
// actual cache contents (O(cache size + allocated chunks)).
func validateDirectories(s *System) error {
	if s.l2dirOK {
		if err := checkDirectory("l2dir", &s.l2dir, s.l2s); err != nil {
			return err
		}
	}
	if s.l1dirOK {
		if err := checkDirectory("l1dir", &s.l1dir, s.l1s); err != nil {
			return err
		}
	}
	return nil
}

// checkDirectory requires dir[l] to be exactly the mask of the caches
// holding line l: every holder is found in the mask, and walking every
// allocated chunk finds no bit for a cache that does not hold the line.
func checkDirectory(which string, dir *lineTable[uint64], caches []*Cache) error {
	want := map[Line]uint64{}
	for i, c := range caches {
		c.Each(func(l Line, st MESIState) {
			if st != Invalid {
				want[l] |= 1 << uint(i)
			}
		})
	}
	for l, m := range want {
		if got := dir.get(uint64(l)); got != m {
			return fmt.Errorf("mem: %s[%d] = %#x, want %#x", which, l, got, m)
		}
	}
	for c, chunk := range dir.dir {
		if chunk == nil {
			continue
		}
		for i, m := range chunk {
			if l := Line(c<<chunkBits | i); m != want[l] {
				return fmt.Errorf("mem: %s[%d] = %#x, want %#x", which, l, m, want[l])
			}
		}
	}
	return nil
}
