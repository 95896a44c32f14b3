package matching

import (
	"testing"
)

// FuzzMatchingOptimality cross-checks the blossom solver against the exact
// bitmask DP on arbitrary symmetric weight matrices with up to 12 vertices.
// The fuzzer decodes the raw bytes as (n, weights): the first byte picks the
// instance size, the rest fill the upper triangle row by row (two bytes per
// weight, missing bytes read as zero). Both solvers must agree on the
// optimal total weight and both matchings must be perfect.
func FuzzMatchingOptimality(f *testing.F) {
	f.Add([]byte{4, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add([]byte{2, 0xff, 0xff})
	f.Add([]byte{6, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{12})                  // all-zero weights at the size cap
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1}) // partial triangle
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// 2..12 vertices, even (perfect matchings need an even order).
		n := int(data[0])%6*2 + 2
		data = data[1:]
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
		}
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var v int64
				if k < len(data) {
					v = int64(data[k])
				}
				if k+1 < len(data) {
					v = v<<8 | int64(data[k+1])
				}
				k += 2
				w[i][j], w[j][i] = v, v
			}
		}

		bMate, bWeight, err := MaxWeightPerfectMatching(w)
		if err != nil {
			t.Fatalf("blossom: %v", err)
		}
		dMate, dWeight, err := ExactDP(w)
		if err != nil {
			t.Fatalf("dp: %v", err)
		}
		if bWeight != dWeight {
			t.Fatalf("n=%d: blossom weight %d != exact %d\nw=%v", n, bWeight, dWeight, w)
		}
		for name, mate := range map[string][]int{"blossom": bMate, "dp": dMate} {
			if len(mate) != n {
				t.Fatalf("%s: %d mates for %d vertices", name, len(mate), n)
			}
			for i, m := range mate {
				if m < 0 || m >= n || m == i || mate[m] != i {
					t.Fatalf("%s: not a perfect matching: mate[%d]=%d (mates %v)", name, i, m, mate)
				}
			}
		}
		// The reported weight must match the matching it came with.
		if got := MatchingWeight(w, bMate); got != bWeight {
			t.Fatalf("blossom weight %d but its matching weighs %d", bWeight, got)
		}
	})
}
