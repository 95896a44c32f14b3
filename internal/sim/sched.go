package sim

import (
	"fmt"
	"math/bits"
)

// schedHeap is the scheduler's ready queue, keyed on (clock, thread id):
// the engine always advances the thread whose core clock is furthest
// behind, with the lexicographic tie-break on the thread id reproducing,
// event for event, the order the original linear scan produced (smallest
// clock wins, equal clocks go to the lowest thread index), so golden files
// and differential corpora stay byte-identical. The scan survives as the
// test reference in sched_test.go.
//
// The key is packed into one uint64 — clock<<idBits | id — so a
// comparison is a single integer compare on a contiguous array instead of
// two loads through the states slice. Packing steals idBits low bits from
// the clock, which caps runs at 2^(64-idBits) cycles; even a 1024-core
// machine leaves 2^54 cycles of headroom (orders of magnitude beyond any
// simulated run), and key() fails loudly rather than wrap silently.
//
// Two representations share the interface:
//
//   - machines up to flatSchedMax threads keep one packed key per thread
//     in a flat array (absentKey when parked). Selection is a branchless
//     min+runner-up sweep: a handful of conditional moves the branch
//     predictor never sees, and a clock update is one store. At these
//     sizes the whole array is a few cache lines, so the sweep beats any
//     pointer-ish structure that pays mispredicted branches per level.
//   - larger machines (the manycore configurations) use an indexed binary
//     min-heap, which drops selection to Θ(log threads) per event.
//
// Done and barrier-parked threads are removed from the queue; an empty
// queue with live threads therefore means "everyone is parked at a
// barrier", exactly the condition the linear scan signalled with -1.
//
// Clock updates reach the queue in two ways:
//
//   - fix(id) rebuilds the thread's key and restores the invariant after
//     one thread's clock changed (every simulated event, migration
//     penalties, preemption stalls);
//   - addAll(delta) mirrors a uniform clock increment applied to every
//     live thread (the HM scan charge): adding the same delta to every
//     packed key preserves the relative order outright.
type schedHeap struct {
	states []threadState
	keys   []uint64 // keys[k] = clock<<idBits | id, heap-ordered
	pos    []int32  // pos[id] = heap position of thread id, or -1
	idBits uint
	idMask uint64
	// flat mode: leaf[id] holds thread id's packed key, or absentKey.
	flat bool
	leaf []uint64
}

// flatSchedMax is the thread count up to which the flat array beats the
// heap: the sweep is branchless and the array spans at most four cache
// lines, while every heap operation pays data-dependent branches.
const flatSchedMax = 32

// absentKey marks a parked thread's slot in flat mode. Real keys cannot
// reach it: key() panics first on clock overflow.
const absentKey = ^uint64(0)

// newSchedHeap builds an empty ready queue over the engine's thread states.
// The states slice must not be reallocated afterwards; keys are rebuilt
// from it on push and fix.
func newSchedHeap(states []threadState) *schedHeap {
	idBits := uint(bits.Len(uint(len(states))))
	if idBits == 0 {
		idBits = 1
	}
	h := &schedHeap{
		states: states,
		keys:   make([]uint64, 0, len(states)),
		pos:    make([]int32, len(states)),
		idBits: idBits,
		idMask: 1<<idBits - 1,
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	if h.flat = len(states) <= flatSchedMax; h.flat {
		h.leaf = make([]uint64, len(states))
		for i := range h.leaf {
			h.leaf[i] = absentKey
		}
	}
	return h
}

// sweep returns the smallest and second-smallest keys in the flat array.
// Two interleaved accumulator chains keep the dependency path short; the
// merge and the per-element updates compile to conditional moves, so the
// sweep costs the same on every input — no data-dependent branches to
// mispredict. Empty slots hold absentKey, the maximum value, and fall out
// naturally.
func (h *schedHeap) sweep() (uint64, uint64) {
	a1, a2 := absentKey, absentKey
	b1, b2 := absentKey, absentKey
	l := h.leaf
	i := 0
	for ; i+1 < len(l); i += 2 {
		x, y := l[i], l[i+1]
		if x < a2 {
			a2 = x
		}
		if a2 < a1 {
			a1, a2 = a2, a1
		}
		if y < b2 {
			b2 = y
		}
		if b2 < b1 {
			b1, b2 = b2, b1
		}
	}
	if i < len(l) {
		x := l[i]
		if x < a2 {
			a2 = x
		}
		if a2 < a1 {
			a1, a2 = a2, a1
		}
	}
	// Merge the two chains: min = min(a1,b1), second = min(max(a1,b1), a2|b2).
	if b1 < a2 {
		a2 = b1
	}
	if a2 < a1 {
		a1, a2 = a2, a1
	}
	if b2 < a2 {
		a2 = b2
	}
	return a1, a2
}

// key packs thread id's current (clock, id) into its heap key.
func (h *schedHeap) key(id int) uint64 {
	clock := h.states[id].clock
	if clock >= 1<<(64-h.idBits) {
		keyOverflow(clock, h.idBits)
	}
	return clock<<h.idBits | uint64(id)
}

// keyOverflow panics on a clock that no longer fits the packed key. The
// fmt call lives here, out of line, so key itself stays small enough to
// inline into the heap maintenance paths.
//
//go:noinline
func keyOverflow(clock uint64, idBits uint) {
	panic(fmt.Sprintf("sim: clock %d overflows the packed scheduler key (%d id bits)", clock, idBits))
}

// peek returns the runnable thread with the smallest (clock, id) key, or -1
// if no thread is runnable.
func (h *schedHeap) peek() int {
	if h.flat {
		min, _ := h.sweep()
		if min == absentKey {
			return -1
		}
		return int(min & h.idMask)
	}
	if len(h.keys) == 0 {
		return -1
	}
	return int(h.keys[0] & h.idMask)
}

// pick returns peek() and nextKey() in one query: the runnable thread with
// the smallest key plus the smallest key among the others. The engine
// calls it once per span.
func (h *schedHeap) pick() (int, uint64) {
	if !h.flat {
		return h.peek(), h.nextKey()
	}
	min, second := h.sweep()
	if min == absentKey {
		return -1, absentKey
	}
	return int(min & h.idMask), second
}

// fixAndPick is fix(id) followed by pick(): the engine calls it at every
// span boundary (the finished span's thread key must be rebuilt before the
// next selection). In flat mode the rebuild is one store ahead of the
// sweep. Semantically identical to calling fix then pick.
func (h *schedHeap) fixAndPick(id int) (int, uint64) {
	if h.flat {
		if h.leaf[id] != absentKey {
			h.leaf[id] = h.key(id)
		}
		min, second := h.sweep()
		if min == absentKey {
			return -1, absentKey
		}
		return int(min & h.idMask), second
	}
	h.fix(id)
	return h.peek(), h.nextKey()
}

// push adds a thread to the ready queue.
func (h *schedHeap) push(id int) {
	if h.flat {
		h.leaf[id] = h.key(id)
		return
	}
	k := int32(len(h.keys))
	h.keys = append(h.keys, h.key(id))
	h.pos[id] = k
	h.siftUp(k)
}

// remove takes a thread out of the ready queue (barrier park or
// completion). Removing an absent thread is a no-op.
func (h *schedHeap) remove(id int) {
	if h.flat {
		h.leaf[id] = absentKey
		return
	}
	k := h.pos[id]
	if k < 0 {
		return
	}
	last := int32(len(h.keys) - 1)
	if k < last {
		h.moveKey(k, h.keys[last])
	}
	h.keys = h.keys[:last]
	h.pos[id] = -1
	if k < last {
		h.siftDown(k)
		h.siftUp(k)
	}
}

// fix rebuilds thread id's key and restores the queue invariant after its
// clock changed. Absent threads (done, or parked at a barrier) are ignored,
// so callers can fix unconditionally after a clock update. Engine clocks
// only move forward, so the heap's common case sifts toward the leaves; the
// upward pass runs only when the key stayed put.
func (h *schedHeap) fix(id int) {
	if h.flat {
		if h.leaf[id] != absentKey {
			h.leaf[id] = h.key(id)
		}
		return
	}
	k := h.pos[id]
	if k < 0 {
		return
	}
	key := h.key(id)
	if !h.siftDownKey(k, key) {
		h.siftUpKey(k, key)
	}
}

// nextKey returns the smallest key among queued threads other than the
// pick — the bound the picked thread's own key must stay below to keep
// being the scheduler's choice — or ^uint64(0) when it is the only
// runnable thread. The engine's batched apply loop reads it once per span:
// as long as the running thread's rebuilt key stays below this bound,
// re-running peek would return the same thread, so the engine keeps
// applying its events without touching the queue.
func (h *schedHeap) nextKey() uint64 {
	if h.flat {
		_, second := h.sweep()
		return second
	}
	switch len(h.keys) {
	case 0, 1:
		return ^uint64(0)
	case 2:
		return h.keys[1]
	default:
		if h.keys[2] < h.keys[1] {
			return h.keys[2]
		}
		return h.keys[1]
	}
}

// addAll adds a uniform clock delta to every queued thread's key. The
// caller must have added the same delta to the threads' clocks; relative
// order is unchanged.
func (h *schedHeap) addAll(delta uint64) {
	packed := delta << h.idBits
	if h.flat {
		for i := range h.leaf {
			if h.leaf[i] != absentKey {
				h.leaf[i] += packed
			}
		}
		return
	}
	for k := range h.keys {
		h.keys[k] += packed
	}
}

// moveKey places key at position k, updating the position index.
func (h *schedHeap) moveKey(k int32, key uint64) {
	h.keys[k] = key
	h.pos[key&h.idMask] = k
}

func (h *schedHeap) siftUp(k int32) { h.siftUpKey(k, h.keys[k]) }

func (h *schedHeap) siftDown(k int32) { h.siftDownKey(k, h.keys[k]) }

// siftUpKey places key at position k or above. It writes the key (and its
// position) unconditionally, so callers may pass a key that is not yet
// stored at k.
func (h *schedHeap) siftUpKey(k int32, key uint64) {
	for k > 0 {
		parent := (k - 1) / 2
		if key >= h.keys[parent] {
			break
		}
		h.moveKey(k, h.keys[parent])
		k = parent
	}
	h.moveKey(k, key)
}

// siftDownKey places key at position k or below and reports whether it
// moved. When it reports false, nothing was written — the caller decides
// whether key still needs storing at k.
func (h *schedHeap) siftDownKey(k int32, key uint64) bool {
	n := int32(len(h.keys))
	start := k
	for {
		l := 2*k + 1
		if l >= n {
			break
		}
		best := l
		bestKey := h.keys[l]
		if r := l + 1; r < n && h.keys[r] < bestKey {
			best, bestKey = r, h.keys[r]
		}
		if key <= bestKey {
			break
		}
		h.moveKey(k, bestKey)
		k = best
	}
	if k == start {
		return false
	}
	h.moveKey(k, key)
	return true
}

// frameBitset tracks which physical frames have had their memory placed on
// a NUMA node. Frames are allocated densely from zero, so a growable bitset
// replaces the former map[vm.Frame]bool with one load plus a mask test on
// the page-walk path.
type frameBitset struct {
	words []uint64
}

func newFrameBitset(frames uint64) *frameBitset {
	return &frameBitset{words: make([]uint64, (frames+63)/64)}
}

func (b *frameBitset) test(f uint64) bool {
	w := f >> 6
	return w < uint64(len(b.words)) && b.words[w]>>(f&63)&1 != 0
}

func (b *frameBitset) set(f uint64) {
	w := f >> 6
	for uint64(len(b.words)) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (f & 63)
}
