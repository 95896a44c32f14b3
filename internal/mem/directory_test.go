package mem

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"tlbmap/internal/metrics"
	"tlbmap/internal/topology"
)

// coherenceGolden holds one SHA-256 per streamMachines entry: the digest
// of the seeded Read/Write stream below, replayed with every sharing
// directory and geometry table switched off, so the System probed every
// L2 domain and every L1 of a domain on each snoop and asked the topology
// for every hop's latency. The digests were recorded from those
// probe-every-domain loops and checked against the directory paths on
// every machine before the loops were deleted. The file has no update
// path; a digest change is a behaviour change.
const coherenceGolden = "testdata/coherence_stream.golden"

// streamMachines lists the machines the stream runs on: the paper's
// Harpertown, the NUMA extension, Manycore(256) (64 L2 domains, one mask
// word), Manycore(512) (128 domains, two words) and a machine whose 80
// domains fill one word and part of a second.
func streamMachines() []struct {
	name string
	m    *topology.Machine
} {
	return []struct {
		name string
		m    *topology.Machine
	}{
		{"harpertown", topology.Harpertown()},
		{"numa", topology.NUMA(2)},
		{"manycore-256", topology.Manycore(256)},
		{"manycore-512", topology.Manycore(512)},
		{"multisocket-80", topology.MultiSocket(2, 40, 2)},
	}
}

// streamBands are the line ranges the stream draws from: one inside the
// first chunk of the paged tables, and two that straddle a chunk boundary
// with untouched chunks between them, so chunk allocation and the chunk
// hop are on the checked path.
var streamBands = [][2]int{{0, 96}, {1000, 1101}, {1<<20 + 1000, 1<<20 + 1101}}

// newStreamSystem builds m's hierarchy with caches small enough that the
// stream evicts, refills and shares lines across many domains at once.
func newStreamSystem(m *topology.Machine) *System {
	return NewSystem(m,
		CacheConfig{SizeBytes: 8 * LineSize, Ways: 2, Latency: 2},
		CacheConfig{SizeBytes: 32 * LineSize, Ways: 4, Latency: 8})
}

// coherenceStream replays 30,000 seeded Reads and Writes (one in three a
// Write) from random cores over streamBands and returns the SHA-256 of
// every operation's latency and the front-side bus's free cycle after it,
// then every core's counters, then every L1's and every L2's contents in
// line order. validate, when non-nil, is called every 1,000 operations and
// at the end.
func coherenceStream(t *testing.T, s *System, validate func(*System) error) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ncores := len(s.l1s)
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 30000; op++ {
		core := rng.Intn(ncores)
		b := streamBands[rng.Intn(len(streamBands))]
		l := Line(b[0] + rng.Intn(b[1]-b[0]))
		now := uint64(op) * 3
		if rng.Intn(3) == 0 {
			put(s.Write(core, l, now))
		} else {
			put(s.Read(core, l, now))
		}
		put(s.fsbFreeAt)
		if validate != nil && op%1000 == 0 {
			if err := validate(s); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if validate != nil {
		if err := validate(s); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < ncores; c++ {
		for e := 0; e < metrics.NumEvents; e++ {
			put(s.Counters(c).Get(metrics.Event(e)))
		}
	}
	for _, caches := range [][]*Cache{s.l1s, s.l2s} {
		for _, c := range caches {
			var lines []Line
			c.Each(func(l Line, _ MESIState) { lines = append(lines, l) })
			slices.Sort(lines)
			put(uint64(len(lines)))
			for _, l := range lines {
				put(uint64(l))
				put(uint64(c.Probe(l)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDirectoryMatchesBroadcast replays the seeded stream on every machine
// of streamMachines and requires the digest recorded from the broadcast
// loops: the sharing directory is an index over the snoop paths, never a
// semantic change, so per-operation latencies, the front-side-bus
// schedule, the counters and the cache contents all match. The directory
// is cross-checked against the cache contents every 1,000 operations, and
// no directory chunk may be allocated outside the keys of the drawn bands.
func TestDirectoryMatchesBroadcast(t *testing.T) {
	want := readCoherenceGolden(t)
	machines := streamMachines()
	if len(want) != len(machines) {
		t.Fatalf("%s has %d machines, the test defines %d", coherenceGolden, len(want), len(machines))
	}
	for _, mk := range machines {
		t.Run(mk.name, func(t *testing.T) {
			s := newStreamSystem(mk.m)
			if got := coherenceStream(t, s, validateDirectory); got != want[mk.name] {
				t.Fatalf("digest %s, golden %s", got, want[mk.name])
			}
			touched := map[uint64]bool{}
			for _, b := range streamBands {
				first, last := uint64(b[0])*s.l2words, uint64(b[1])*s.l2words-1
				for c := first >> chunkBits; c <= last>>chunkBits; c++ {
					touched[c] = true
				}
			}
			for c, chunk := range s.l2dir.dir {
				if chunk != nil && !touched[uint64(c)] {
					t.Fatalf("directory chunk %d allocated, but no drawn line's key falls in it", c)
				}
			}
		})
	}
}

// readCoherenceGolden parses "machine digest" lines, skipping '#' comments.
func readCoherenceGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(coherenceGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", coherenceGolden, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// validateDirectory cross-checks the L2 sharing directory against the
// actual cache contents (O(cache size + allocated chunks)): the mask word
// at key l*l2words + w must be exactly the set of domains 64w to 64w+63
// whose L2 holds line l. Every holder is found in its word, and walking
// every allocated chunk finds no bit for a domain that does not hold the
// line.
func validateDirectory(s *System) error {
	want := map[uint64]uint64{}
	for d, c := range s.l2s {
		c.Each(func(l Line, st MESIState) {
			if st != Invalid {
				want[uint64(l)*s.l2words+uint64(d)/64] |= 1 << (uint(d) % 64)
			}
		})
	}
	for k, m := range want {
		if got := s.l2dir.get(k); got != m {
			return fmt.Errorf("mem: l2dir key %d (line %d, word %d) = %#x, want %#x",
				k, k/s.l2words, k%s.l2words, got, m)
		}
	}
	for c, chunk := range s.l2dir.dir {
		if chunk == nil {
			continue
		}
		for i, m := range chunk {
			if k := uint64(c<<chunkBits | i); m != want[k] {
				return fmt.Errorf("mem: l2dir key %d (line %d, word %d) = %#x, want %#x",
					k, k/s.l2words, k%s.l2words, m, want[k])
			}
		}
	}
	return nil
}
