package comm

import (
	"math/rand"
	"testing"

	"tlbmap/internal/vm"
)

// TestBlockTableMatchesMap drives a randomized slot/update sequence against
// a plain map reference, across enough keys to force several growths.
func TestBlockTableMatchesMap(t *testing.T) {
	bt := newBlockTable()
	ref := make(map[uint64]accessorHistory)
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 50000; op++ {
		// Page-number-like keys: small, clustered, with strides.
		key := uint64(rng.Intn(8000)) * uint64(1+rng.Intn(3))
		h := bt.slot(key)
		rh, ok := ref[key]
		if !ok {
			rh = emptyHistory()
		}
		if *h != rh {
			t.Fatalf("op %d: slot(%d) = %+v, want %+v", op, key, *h, rh)
		}
		// Mutate both sides identically, the way OnAccess does.
		rh.counter++
		h.counter++
		th := int32(rng.Intn(8))
		*h = h.push(th)
		ref[key] = rh.push(th)
	}
	if bt.size() != len(ref) {
		t.Fatalf("table holds %d entries, map holds %d", bt.size(), len(ref))
	}
	for key, rh := range ref {
		h := bt.lookup(key)
		if h == nil {
			t.Fatalf("key %d missing from table", key)
		}
		if *h != rh {
			t.Fatalf("key %d: table %+v, map %+v", key, *h, rh)
		}
	}
	if bt.lookup(999_999_999) != nil {
		t.Fatal("lookup of absent key returned an entry")
	}
}

// TestBlockTableGrowthPreservesEntries fills past several load-factor
// boundaries and checks every inserted key survives with its value.
func TestBlockTableGrowthPreservesEntries(t *testing.T) {
	bt := newBlockTable()
	const n = 10 * blockTableMinSize
	for i := uint64(0); i < n; i++ {
		h := bt.slot(i * 4096) // page-aligned-looking keys
		h.counter = uint32(i)
	}
	if bt.size() != n {
		t.Fatalf("size = %d, want %d", bt.size(), n)
	}
	for i := uint64(0); i < n; i++ {
		h := bt.lookup(i * 4096)
		if h == nil || h.counter != uint32(i) {
			t.Fatalf("key %d lost or corrupted after growth: %+v", i*4096, h)
		}
	}
}

// TestOracleDetectorFlatTableEquivalence replays an access stream through
// the oracle and checks the matrix against a map-backed re-implementation
// of the same history semantics.
func TestOracleDetectorFlatTableEquivalence(t *testing.T) {
	const threads = 8
	d := NewOracleDetector(threads, PageGranularity)
	refLast := make(map[uint64]accessorHistory)
	refMatrix := NewMatrix(threads)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40000; i++ {
		th := rng.Intn(threads)
		addr := vm.Addr(uint64(1+rng.Intn(200)) * 4096)
		d.OnAccess(th, addr)

		block := uint64(addr.Page())
		h, ok := refLast[block]
		if !ok {
			h = emptyHistory()
		}
		h.counter++
		t32 := int32(th)
		if h.entries[0].thread == t32 {
			h.entries[0].seen = h.counter
			refLast[block] = h
			continue
		}
		for e := range h.entries {
			if h.fresh(e) && h.entries[e].thread != t32 {
				refMatrix.Inc(th, int(h.entries[e].thread))
			}
		}
		refLast[block] = h.push(t32)
	}
	for i := 0; i < threads; i++ {
		for j := 0; j < threads; j++ {
			if d.Matrix().At(i, j) != refMatrix.At(i, j) {
				t.Fatalf("matrix[%d][%d] = %d, want %d", i, j, d.Matrix().At(i, j), refMatrix.At(i, j))
			}
		}
	}
}

// lookup returns the history for key, or nil if absent (tests and stats).
func (t *blockTable) lookup(key uint64) *accessorHistory {
	i := blockHash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return &t.vals[i]
		}
		if k == blockTableEmpty {
			return nil
		}
		i = (i + 1) & t.mask
	}
}

// len returns the number of live entries.
func (t *blockTable) size() int { return t.n }
