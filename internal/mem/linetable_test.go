package mem

import (
	"runtime"
	"slices"
	"testing"

	"tlbmap/internal/metrics"
	"tlbmap/internal/topology"
)

// TestLineTableReadsZeroUntilWritten checks the table's map semantics
// across chunk boundaries: an unwritten key reads 0 whether its chunk is
// allocated or not, a write is read back, and reading never allocates a
// chunk.
func TestLineTableReadsZeroUntilWritten(t *testing.T) {
	var tab lineTable[uint64]
	keys := []uint64{0, chunkLen - 1, chunkLen, 5*chunkLen + 7, 1 << 30}
	for _, k := range keys {
		if v := tab.get(k); v != 0 {
			t.Fatalf("get(%d) = %d before any write", k, v)
		}
	}
	if len(tab.dir) != 0 {
		t.Fatalf("reads allocated a directory of %d chunks", len(tab.dir))
	}
	for i, k := range keys {
		*tab.slot(k) = uint64(i + 1)
	}
	for i, k := range keys {
		if v := tab.get(k); v != uint64(i+1) {
			t.Fatalf("get(%d) = %d, want %d", k, v, i+1)
		}
		if v := tab.get(k ^ 1); v != 0 && !slices.Contains(keys, k^1) {
			t.Fatalf("get(%d) = %d, never written", k^1, v)
		}
	}
	allocated := 0
	for _, c := range tab.dir {
		if c != nil {
			allocated++
		}
	}
	// 0 and chunkLen-1 share chunk 0; every other key has its own.
	if allocated != len(keys)-1 {
		t.Fatalf("%d chunks allocated, want %d", allocated, len(keys)-1)
	}
}

// TestCacheMemoryFollowsTouchedLines holds a paper-configuration L2 at
// lines 0 and 1<<24. A residency table sized by the highest line would
// allocate 64 MiB for the second insert; the paged table allocates two
// chunks and a directory of 2^14 pointers.
func TestCacheMemoryFollowsTouchedLines(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache(DefaultL2Config)
	c.Insert(0, Exclusive)
	c.Insert(1<<24, Modified)
	runtime.ReadMemStats(&after)
	if c.Probe(0) != Exclusive || c.Probe(1<<24) != Modified || c.Len() != 2 {
		t.Fatalf("cache lost a line: states %v %v, %d resident", c.Probe(0), c.Probe(1<<24), c.Len())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a cache holding lines 0 and 1<<24 allocated %d bytes, want under 1 MiB", got)
	}
}

// BenchmarkCacheAccess is the L1/L2 probe layer micro: ns per System.Read
// by one core of Harpertown with the Table II caches, for an L1 hit, an
// L2 hit (L1 miss, L1 refill) and a miss to memory, and ns per round of
// the shared-write case, the remote MESI transition: core 2 (another L2
// domain on the same chip) and core 1 (core 0's sibling) read a line, then
// core 0 writes it. Core 2's read is a cache-to-cache transfer from
// domain 0, which held the line Modified since the last round; core 1's
// read hits the shared L2; core 0's store upgrades Shared to Modified,
// invalidating domain 1's L2 and core 2's L1, and core 1's L1 copy. Each
// case cycles over lines chosen so every access lands in its case, spread
// over hundreds of residency-table chunks so the chunk hop is on the
// measured path. One warm-up pass fills the caches; a second pass checks
// the counters.
func BenchmarkCacheAccess(b *testing.B) {
	const l2Sets = 6 << 20 / LineSize / 8
	var l1hit, l2hit, miss []Line
	for k := 0; k < 512; k++ {
		// Stride 1025: L1 set k%128, four lines per 4-way set.
		l1hit = append(l1hit, Line(k*1025))
		// Stride 1032: 16 L1 sets with 32 lines each always miss the
		// 4-way L1; the 512 lines take 512 distinct L2 sets.
		l2hit = append(l2hit, Line(k*1032))
	}
	for j := 0; j < 16; j++ {
		for s := 0; s < 16; s++ {
			// 16 lines in each of 16 L1 sets and 16 L2 sets overflow
			// both the 4-way L1 and the 8-way L2.
			miss = append(miss, Line(s*1025+j*l2Sets))
		}
	}
	for _, bc := range []struct {
		name  string
		lines []Line
		want  metrics.Event
	}{
		{"L1hit", l1hit, metrics.L1Hits},
		{"L2hit", l2hit, metrics.L2Hits},
		{"miss", miss, metrics.L2Misses},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSystem(topology.Harpertown(), DefaultL1Config, DefaultL2Config)
			var now uint64
			for pass := 0; pass < 2; pass++ {
				before := s.Counters(0).Get(bc.want)
				for _, l := range bc.lines {
					now += 1000
					s.Read(0, l, now)
				}
				if got := s.Counters(0).Get(bc.want) - before; pass == 1 && got != uint64(len(bc.lines)) {
					b.Fatalf("%d of %d accesses counted as %v", got, len(bc.lines), bc.want)
				}
			}
			n := len(bc.lines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1000
				s.Read(0, bc.lines[i%n], now)
			}
		})
	}
	b.Run("sharedWrite", func(b *testing.B) {
		s := NewSystem(topology.Harpertown(), DefaultL1Config, DefaultL2Config)
		var now uint64
		round := func(l Line) {
			now += 1000
			s.Read(2, l, now)
			s.Read(1, l, now)
			s.Write(0, l, now)
		}
		for pass := 0; pass < 2; pass++ {
			inv := s.Counters(0).Get(metrics.Invalidations)
			snoops := s.Counters(2).Get(metrics.SnoopTransactions)
			hits := s.Counters(1).Get(metrics.L2Hits)
			for _, l := range l1hit {
				round(l)
			}
			if pass == 0 {
				continue
			}
			n := uint64(len(l1hit))
			if got := s.Counters(0).Get(metrics.Invalidations) - inv; got != 3*n {
				b.Fatalf("%d rounds' writes invalidated %d copies, want %d", n, got, 3*n)
			}
			if got := s.Counters(2).Get(metrics.SnoopTransactions) - snoops; got != n {
				b.Fatalf("core 2 took %d cache-to-cache transfers in %d rounds, want %d", got, n, n)
			}
			if got := s.Counters(1).Get(metrics.L2Hits) - hits; got != n {
				b.Fatalf("core 1 hit its L2 %d times in %d rounds, want %d", got, n, n)
			}
		}
		n := len(l1hit)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(l1hit[i%n])
		}
	})
}
