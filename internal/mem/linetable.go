package mem

// Geometry of lineTable: a chunk covers chunkLen consecutive keys.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// lineTable maps a line or frame number to a value, reading 0 for every
// key never written. Physical frames are allocated densely from zero (see
// internal/vm), so the keys a run touches fill a few contiguous ranges,
// and a flat slice indexed by key would work as the map — except that it
// has to reach the highest key ever written, which makes every cache's
// residency table as large as the whole physical footprint. The table is
// paged instead: a directory of fixed chunkLen-entry chunks, each
// allocated on the first write into its key range and never moved, so
// memory follows the ranges touched. A read is two dependent loads (the
// chunk pointer, then the entry) with no hashing and no probe loop.
type lineTable[V int32 | uint64] struct {
	dir []*[chunkLen]V
}

// at returns a pointer to k's entry, or nil while k's chunk is
// unallocated (every key in it reads 0). A read-modify-write of a key
// goes through one at, so it resolves the chunk once.
func (t *lineTable[V]) at(k uint64) *V {
	if dir := t.dir; k>>chunkBits < uint64(len(dir)) {
		if p := dir[k>>chunkBits]; p != nil {
			return &p[k&chunkMask]
		}
	}
	return nil
}

// get returns k's value, or 0 when k was never written. It repeats at's
// lookup instead of calling it, which keeps Cache.Lookup within the
// compiler's inlining budget.
func (t *lineTable[V]) get(k uint64) V {
	if dir := t.dir; k>>chunkBits < uint64(len(dir)) {
		if p := dir[k>>chunkBits]; p != nil {
			return p[k&chunkMask]
		}
	}
	return 0
}

// slot returns a pointer to k's entry, allocating k's chunk (and growing
// the directory to reach it) on the first write into its range.
func (t *lineTable[V]) slot(k uint64) *V {
	if p := t.at(k); p != nil {
		return p
	}
	c := k >> chunkBits
	if c >= uint64(len(t.dir)) {
		t.dir = append(t.dir, make([]*[chunkLen]V, c+1-uint64(len(t.dir)))...)
	}
	p := new([chunkLen]V)
	t.dir[c] = p
	return &p[k&chunkMask]
}
