package matching

import (
	"math"
	"math/bits"
)

// MaxDPVertices is the largest instance ExactDP accepts; beyond it the
// 2^N table no longer fits in reasonable memory.
const MaxDPVertices = 24

// ExactDP computes a maximum weight perfect matching by dynamic programming
// over vertex subsets in O(2^N · N) time. It is exact and simple, and
// serves as the correctness reference for the blossom solver; it is limited
// to N <= MaxDPVertices.
func ExactDP(w [][]int64) ([]int, int64, error) {
	if err := Validate(w); err != nil {
		return nil, 0, err
	}
	n := len(w)
	if n > MaxDPVertices {
		return nil, 0, errTooLarge(n)
	}
	full := 1 << n
	const unset = math.MinInt64
	best := make([]int64, full)
	choice := make([]int, full) // packed (i<<8)|j of the pair removed last
	for m := 1; m < full; m++ {
		best[m] = unset
	}
	for m := 1; m < full; m++ {
		pop := bits.OnesCount(uint(m))
		if pop%2 != 0 {
			continue
		}
		// Always match the lowest set bit: every perfect matching pairs
		// it with something, so this canonical choice loses nothing.
		i := bits.TrailingZeros(uint(m))
		rest := m &^ (1 << i)
		for r := rest; r != 0; r &= r - 1 {
			j := bits.TrailingZeros(uint(r))
			prev := m &^ (1 << i) &^ (1 << j)
			if best[prev] == unset && prev != 0 {
				continue
			}
			var base int64
			if prev != 0 {
				base = best[prev]
			}
			if cand := base + w[i][j]; best[m] == unset || cand > best[m] {
				best[m] = cand
				choice[m] = i<<8 | j
			}
		}
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for m := full - 1; m != 0; {
		c := choice[m]
		i, j := c>>8, c&0xff
		mate[i], mate[j] = j, i
		m = m &^ (1 << i) &^ (1 << j)
	}
	return mate, best[full-1], nil
}

type errTooLarge int

func (e errTooLarge) Error() string {
	return "matching: ExactDP limited to 24 vertices, got " + itoa(int(e))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BruteForce enumerates every perfect matching recursively. It is the
// slowest but most obviously correct solver; use only for N <= 12
// ((N-1)!! matchings).
func BruteForce(w [][]int64) ([]int, int64, error) {
	if err := Validate(w); err != nil {
		return nil, 0, err
	}
	n := len(w)
	mate := make([]int, n)
	best := make([]int, n)
	for i := range mate {
		mate[i] = -1
		best[i] = -1
	}
	bestW := int64(math.MinInt64)
	var rec func(acc int64)
	rec = func(acc int64) {
		i := -1
		for k := 0; k < n; k++ {
			if mate[k] == -1 {
				i = k
				break
			}
		}
		if i == -1 {
			if acc > bestW {
				bestW = acc
				copy(best, mate)
			}
			return
		}
		for j := i + 1; j < n; j++ {
			if mate[j] != -1 {
				continue
			}
			mate[i], mate[j] = j, i
			rec(acc + w[i][j])
			mate[i], mate[j] = -1, -1
		}
	}
	rec(0)
	return best, bestW, nil
}
