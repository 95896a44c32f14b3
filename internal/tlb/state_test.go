package tlb

import (
	"bytes"
	"math/rand"
	"testing"

	"tlbmap/internal/vm"
)

// touch drives one access against a TLB the way the serving engine does:
// lookup, then insert on miss.
func touch(t *TLB, p vm.Page) {
	if _, ok := t.Lookup(p); !ok {
		t.Insert(vm.Translation{Page: p, Frame: vm.Frame(uint64(p) + 1000)})
	}
}

func TestTLBStateRoundTrip(t *testing.T) {
	orig := New(Config{Entries: 64, Ways: 4})
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 500; k++ {
		touch(orig, vm.Page(rng.Intn(200)))
	}
	enc := orig.AppendState(nil)
	got, rest, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	if got.Config() != orig.Config() {
		t.Fatalf("geometry changed: %+v -> %+v", orig.Config(), got.Config())
	}
	if got.Hits() != orig.Hits() || got.Misses() != orig.Misses() || got.Evictions() != orig.Evictions() {
		t.Fatalf("counters changed: %d/%d/%d -> %d/%d/%d",
			orig.Hits(), orig.Misses(), orig.Evictions(),
			got.Hits(), got.Misses(), got.Evictions())
	}
	if got.Len() != orig.Len() {
		t.Fatalf("resident count changed: %d -> %d", orig.Len(), got.Len())
	}
	for _, p := range orig.ResidentPages() {
		of, _ := orig.Peek(p)
		gf, ok := got.Peek(p)
		if !ok || gf != of {
			t.Fatalf("page %#x: frame %d/%t, want %d", uint64(p), uint64(gf), ok, uint64(of))
		}
	}
	// Re-encoding is byte-identical: the restored TLB is the original.
	if !bytes.Equal(got.AppendState(nil), enc) {
		t.Fatal("re-encoding differs")
	}
}

// TestTLBStateContinuation is the property the durability layer actually
// needs: after restore, the TLB makes the SAME hit/miss/eviction choices
// as a TLB that never stopped — including LRU victim selection, which
// depends on per-slot timestamps and the logical clock.
func TestTLBStateContinuation(t *testing.T) {
	cont := New(Config{Entries: 32, Ways: 4})
	rng := rand.New(rand.NewSource(23))
	trace := make([]vm.Page, 3000)
	for i := range trace {
		trace[i] = vm.Page(rng.Intn(100))
	}
	cut := 1500
	for _, p := range trace[:cut] {
		touch(cont, p)
	}
	restored, rest, err := DecodeState(cont.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	for _, p := range trace[cut:] {
		touch(cont, p)
		touch(restored, p)
		// Every access must agree on hit/miss and, via the counters, on
		// which victim was evicted.
		if cont.Hits() != restored.Hits() || cont.Misses() != restored.Misses() ||
			cont.Evictions() != restored.Evictions() {
			t.Fatalf("diverged on page %#x: %d/%d/%d vs %d/%d/%d",
				uint64(p), cont.Hits(), cont.Misses(), cont.Evictions(),
				restored.Hits(), restored.Misses(), restored.Evictions())
		}
	}
	if !bytes.Equal(cont.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("final states differ despite identical counters")
	}
}

// TestTLBStateAttach: a restored TLB attached to a fresh PresenceIndex
// must be indexed exactly as the original was.
func TestTLBStateAttach(t *testing.T) {
	pidx := NewPresenceIndex(2)
	orig := New(Config{Entries: 16, Ways: 2})
	pidx.Attach(orig)
	for p := vm.Page(0); p < 40; p++ {
		touch(orig, p)
	}
	restored, _, err := DecodeState(orig.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	pidx2 := NewPresenceIndex(2)
	pidx2.Attach(restored)
	for _, p := range orig.ResidentPages() {
		if m := pidx2.Holders(p); len(m) != 1 || m[0] != 1 {
			t.Fatalf("page %#x: holder mask %x after attach, want [1]", uint64(p), m)
		}
	}
}

func TestTLBStateRejectsDamage(t *testing.T) {
	orig := New(Config{Entries: 16, Ways: 4})
	for p := vm.Page(0); p < 30; p++ {
		touch(orig, p)
	}
	enc := orig.AppendState(nil)

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), enc...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:len(enc)-3],
		"bad-valid": corrupt(func(b []byte) { b[4+4+8*4] = 7 }),
		"zero-ways": corrupt(func(b []byte) { b[4], b[5], b[6], b[7] = 0, 0, 0, 0 }),
		"wrong-set": corrupt(func(b []byte) { b[4+4+8*4+1] ^= 0xFF }), // page low byte -> wrong set
	}
	for name, data := range cases {
		if _, _, err := DecodeState(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}
