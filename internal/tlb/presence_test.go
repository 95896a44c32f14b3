package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/vm"
)

// TestPresenceIndexProperty is the quickcheck-style property test of the
// inverted index: after an arbitrary seeded sequence of inserts,
// invalidations, flushes and cross-core shootdowns, the incrementally
// maintained index must equal a from-scratch recomputation over the TLB
// contents (Validate), and every page's holder mask must agree bit by bit
// with Peek on every TLB. Core counts above 64 exercise the
// multi-word mask paths.
func TestPresenceIndexProperty(t *testing.T) {
	for _, cores := range []int{1, 4, 8, 70} {
		cores := cores
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xbeef + int64(cores)))
			ix := NewPresenceIndex(cores)
			if ix.Words() != (cores+63)/64 {
				t.Fatalf("cores=%d: %d mask words, want %d", cores, ix.Words(), (cores+63)/64)
			}
			tlbs := make([]*TLB, cores)
			for i := range tlbs {
				tlbs[i] = New(Config{Entries: 32, Ways: 4})
				if slot := ix.Attach(tlbs[i]); slot != i {
					t.Fatalf("attach %d assigned slot %d", i, slot)
				}
			}
			// More distinct pages than TLB capacity, so inserts evict.
			const pages = 96
			for op := 0; op < 5000; op++ {
				c := rng.Intn(cores)
				p := vm.Page(rng.Intn(pages))
				switch rng.Intn(12) {
				case 0:
					tlbs[c].Flush()
				case 1:
					// Shootdown: the page is invalidated on every core.
					for _, tl := range tlbs {
						tl.Invalidate(p)
					}
				case 2, 3:
					tlbs[c].Invalidate(p)
				default:
					tlbs[c].Insert(vm.Translation{Page: p, Frame: vm.Frame(p + 1)})
				}
				if op%97 == 0 {
					if err := ix.Validate(); err != nil {
						t.Fatalf("after op %d: %v", op, err)
					}
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			for p := vm.Page(0); p < pages; p++ {
				mask := ix.Holders(p)
				for slot, tl := range tlbs {
					_, want := tl.Peek(p)
					got := mask != nil && mask[slot>>6]&(1<<(uint(slot)&63)) != 0
					if got != want {
						t.Fatalf("page %#x slot %d: index says held=%v, TLB says %v",
							uint64(p), slot, got, want)
					}
				}
			}
		})
	}
}

// TestPresenceIndexAttachAbsorbsResidents proves attach order and insert
// order are interchangeable: attaching a TLB that already holds
// translations absorbs them into the index.
func TestPresenceIndexAttachAbsorbsResidents(t *testing.T) {
	tl := New(DefaultConfig)
	for p := 0; p < 10; p++ {
		tl.Insert(vm.Translation{Page: vm.Page(p), Frame: vm.Frame(p)})
	}
	ix := NewPresenceIndex(2)
	ix.Attach(tl)
	if ix.PageCount() != 10 {
		t.Fatalf("index absorbed %d pages, want 10", ix.PageCount())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-attaching the same TLB is idempotent.
	if slot := ix.Attach(tl); slot != 0 {
		t.Fatalf("re-attach assigned slot %d, want 0", slot)
	}
	if ix.Attached() != 1 {
		t.Fatalf("%d TLBs attached after re-attach, want 1", ix.Attached())
	}
}

// TestPresenceIndexWalkCoversEveryPage checks that Walk's run-length
// batching neither drops nor double-counts pages: the counts must sum to
// PageCount and every visited mask must be non-empty.
func TestPresenceIndexWalkCoversEveryPage(t *testing.T) {
	ix := NewPresenceIndex(70) // multi-word masks
	tlbs := make([]*TLB, 70)
	rng := rand.New(rand.NewSource(42))
	for i := range tlbs {
		tlbs[i] = New(Config{Entries: 32, Ways: 4})
		ix.Attach(tlbs[i])
		for k := 0; k < 16; k++ {
			p := vm.Page(rng.Intn(64))
			tlbs[i].Insert(vm.Translation{Page: p, Frame: vm.Frame(p)})
		}
	}
	total := 0
	ix.Walk(func(mask []uint64, count int) {
		if count <= 0 {
			t.Fatalf("walk visited a run of length %d", count)
		}
		empty := true
		for _, w := range mask {
			if w != 0 {
				empty = false
			}
		}
		if empty {
			t.Fatal("walk visited an all-zero holder mask")
		}
		total += count
	})
	if total != ix.PageCount() {
		t.Fatalf("walk visited %d pages, index tracks %d", total, ix.PageCount())
	}
}

// TestPresenceIndexAttachPanics pins the wiring-error diagnostics: a TLB
// cannot serve two indexes, and an index cannot take more TLBs than its
// capacity.
func TestPresenceIndexAttachPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	tl := New(DefaultConfig)
	NewPresenceIndex(1).Attach(tl)
	mustPanic("cross-index attach", func() { NewPresenceIndex(1).Attach(tl) })
	mustPanic("capacity overflow", func() {
		ix := NewPresenceIndex(1)
		ix.Attach(New(DefaultConfig))
		ix.Attach(New(DefaultConfig))
	})
	mustPanic("non-positive capacity", func() { NewPresenceIndex(0) })
}

// TestPresenceIndexHolders pins the lookup contract: nil for absent
// pages, correct bit for resident ones, absence again after invalidation.
func TestPresenceIndexHolders(t *testing.T) {
	ix := NewPresenceIndex(2)
	a, b := New(DefaultConfig), New(DefaultConfig)
	ix.Attach(a)
	ix.Attach(b)
	if m := ix.Holders(7); m != nil {
		t.Fatalf("holders of an absent page = %x, want nil", m)
	}
	a.Insert(vm.Translation{Page: 7, Frame: 1})
	b.Insert(vm.Translation{Page: 7, Frame: 1})
	if m := ix.Holders(7); len(m) != 1 || m[0] != 0b11 {
		t.Fatalf("holders = %x, want [3]", m)
	}
	a.Invalidate(7)
	if m := ix.Holders(7); len(m) != 1 || m[0] != 0b10 {
		t.Fatalf("holders after invalidate = %x, want [2]", m)
	}
	b.Invalidate(7)
	if m := ix.Holders(7); m != nil {
		t.Fatalf("holders after full invalidate = %x, want nil", m)
	}
	if ix.PageCount() != 0 {
		t.Fatalf("index still tracks %d pages", ix.PageCount())
	}
}

// Words returns the number of 64-bit words in each holder mask.
func (ix *PresenceIndex) Words() int { return ix.words }
