package tlb

import (
	"math/rand"
	"testing"

	"tlbmap/internal/vm"
)

// countSet recomputes a set's occupancy from the entries, the slow way.
func countSet(t *TLB, set int) int {
	n := 0
	for _, e := range t.set(set) {
		if e.valid {
			n++
		}
	}
	return n
}

// TestSetLenTracksOccupancy drives a randomized Insert/Invalidate/Flush
// sequence and checks the incremental per-set counters against a recount
// after every operation, for both power-of-two and non-power-of-two set
// counts (the two SetOf code paths).
func TestSetLenTracksOccupancy(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig,          // 16 sets: power-of-two mask path
		{Entries: 24, Ways: 2}, // 12 sets: modulo path
	} {
		tl := New(cfg)
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 5000; op++ {
			switch rng.Intn(10) {
			case 0:
				tl.Flush()
			case 1, 2:
				tl.Invalidate(vm.Page(rng.Intn(200)))
			default:
				tl.Insert(tr(vm.Page(rng.Intn(200))))
			}
			total := 0
			for s := 0; s < cfg.Sets(); s++ {
				want := countSet(tl, s)
				if got := int(tl.setLen[s]); got != want {
					t.Fatalf("cfg %+v op %d: setLen[%d] = %d, recount = %d", cfg, op, s, got, want)
				}
				if got := len(tl.PagesInSet(s, nil)); got != want {
					t.Fatalf("cfg %+v op %d: PagesInSet(%d) has %d pages, recount = %d", cfg, op, s, got, want)
				}
				total += want
			}
			if tl.Len() != total {
				t.Fatalf("cfg %+v op %d: Len = %d, recount = %d", cfg, op, tl.Len(), total)
			}
		}
	}
}

// TestSetOfMaskMatchesModulo checks the masked fast path against the plain
// modulo definition for a power-of-two geometry.
func TestSetOfMaskMatchesModulo(t *testing.T) {
	tl := New(DefaultConfig)
	sets := uint64(DefaultConfig.Sets())
	for p := uint64(0); p < 1000; p += 7 {
		if got, want := tl.SetOf(vm.Page(p)), int(p%sets); got != want {
			t.Fatalf("SetOf(%d) = %d, want %d", p, got, want)
		}
	}
}
