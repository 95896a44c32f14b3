package comm

// blockTable is a cache-friendly open-addressing hash table from 64-bit
// block numbers (page or cache-line numbers) to accessor histories. It
// replaces the built-in map on the oracle detector's per-access path: keys
// and values live in two flat power-of-two arrays probed linearly, entries
// are updated in place through a pointer (no copy-out/copy-in per access),
// and the table only allocates when it grows.
//
// The empty-slot sentinel is ^uint64(0): simulated virtual addresses come
// from a bump allocator starting at vm.PageSize and stay far below 2^64,
// so no real page or line number can collide with it.
type blockTable struct {
	keys []uint64
	vals []accessorHistory
	mask uint64
	n    int // live entries
}

const blockTableEmpty = ^uint64(0)

// blockTableMinSize is the initial capacity; it must be a power of two.
const blockTableMinSize = 1024

func newBlockTable() *blockTable {
	t := &blockTable{}
	t.init(blockTableMinSize)
	return t
}

func (t *blockTable) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.vals = make([]accessorHistory, capacity)
	t.mask = uint64(capacity - 1)
	t.n = 0
	for i := range t.keys {
		t.keys[i] = blockTableEmpty
	}
}

// hash is the 64-bit finalizer of SplitMix64 — cheap, and strong enough to
// spread the highly regular page numbers of array-walking workloads across
// the table.
func blockHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slot returns a pointer to the history for key, inserting a fresh
// emptyHistory() value if the key was absent. The pointer is valid until
// the next slot call (which may grow the table).
func (t *blockTable) slot(key uint64) *accessorHistory {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	i := blockHash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return &t.vals[i]
		}
		if k == blockTableEmpty {
			t.keys[i] = key
			t.vals[i] = emptyHistory()
			t.n++
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the capacity and reinserts every live entry.
func (t *blockTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k == blockTableEmpty {
			continue
		}
		j := blockHash(k) & t.mask
		for t.keys[j] != blockTableEmpty {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.n++
	}
}
