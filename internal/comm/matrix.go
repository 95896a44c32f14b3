// Package comm implements communication-pattern detection: the
// communication matrix (Section III-C) and the three detectors evaluated in
// the paper — the software-managed TLB mechanism (SM, Figure 1a), the
// hardware-managed TLB mechanism (HM, Figure 1b), and a full-memory-trace
// oracle in the style of the simulation-based related work (Section II),
// used as the accuracy reference.
package comm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tlbmap/internal/stats"
)

// Matrix is a symmetric N x N communication matrix: cell (i, j) accumulates
// the amount of communication detected between threads i and j. The
// diagonal is unused (a thread does not communicate with itself).
//
// Storage is one dense row-major n×n array holding each pair once, in the
// upper triangle: every accessor orders (i, j) so that i < j, and the lower
// triangle and the diagonal are never written. Detected matrices are
// nearly full at the sizes this code maps (up to 1024 threads), so the
// fixed n²·8 bytes cost little and keep Add small enough to inline.
type Matrix struct {
	n     int
	cells []uint64 // row-major n*n; only cells[i*n+j] with i < j are written
}

// NewMatrix returns an all-zero matrix for n threads.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("comm: invalid thread count %d", n))
	}
	return &Matrix{n: n, cells: make([]uint64, n*n)}
}

// N returns the number of threads.
func (m *Matrix) N() int { return m.n }

// At returns the communication between threads i and j.
func (m *Matrix) At(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return m.cells[i*m.n+j]
}

// Add accumulates w units of communication between threads i and j.
// Adding to the diagonal is a no-op.
func (m *Matrix) Add(i, j int, w uint64) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	m.cells[i*m.n+j] += w
}

// Inc accumulates one unit of communication between threads i and j.
func (m *Matrix) Inc(i, j int) { m.Add(i, j, 1) }

// Set overwrites the communication between threads i and j. Setting the
// diagonal is a no-op. Detectors only ever accumulate; Set exists for
// matrix post-processing — fixtures, KeepHeaviest, and the fault layer's
// bit-decay/saturation corruption.
func (m *Matrix) Set(i, j int, w uint64) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	m.cells[i*m.n+j] = w
}

// KeepHeaviest trims the matrix to a top-k row sketch: rows are visited in
// index order, and in each row the lightest cells — the higher column
// first among equal weights — are zeroed until at most k partners remain.
// A zeroed cell leaves both threads' rows, so a later row counts only the
// partners that survived the rows before it. k <= 0 keeps every cell.
func (m *Matrix) KeepHeaviest(k int) {
	if k <= 0 {
		return
	}
	type partner struct {
		col int
		w   uint64
	}
	var row []partner
	for r := 0; r < m.n; r++ {
		row = row[:0]
		for c := 0; c < m.n; c++ {
			if w := m.At(r, c); w != 0 {
				row = append(row, partner{c, w})
			}
		}
		if len(row) <= k {
			continue
		}
		slices.SortFunc(row, func(a, b partner) int {
			if a.w != b.w {
				return cmp.Compare(a.w, b.w)
			}
			return cmp.Compare(b.col, a.col)
		})
		for _, p := range row[:len(row)-k] {
			m.Set(r, p.col, 0)
		}
	}
}

// NNZ returns the number of non-zero upper-triangle cells (communicating
// thread pairs).
func (m *Matrix) NNZ() int {
	count := 0
	for _, w := range m.cells {
		if w != 0 {
			count++
		}
	}
	return count
}

// ForEach visits every non-zero upper-triangle cell (i < j) in ascending
// (i, j) order. Mapping cost and graph construction use it to touch only
// the communicating pairs.
func (m *Matrix) ForEach(fn func(i, j int, w uint64)) {
	for i := 0; i < m.n; i++ {
		row := m.cells[i*m.n : (i+1)*m.n]
		for j := i + 1; j < m.n; j++ {
			if w := row[j]; w != 0 {
				fn(i, j, w)
			}
		}
	}
}

// Total returns the sum over the upper triangle (each pair counted once).
func (m *Matrix) Total() uint64 {
	var t uint64
	for _, w := range m.cells {
		t += w
	}
	return t
}

// Max returns the largest cell value.
func (m *Matrix) Max() uint64 {
	var mx uint64
	for _, w := range m.cells {
		mx = max(mx, w)
	}
	return mx
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{n: m.n, cells: slices.Clone(m.cells)}
}

// Equal reports whether two matrices have the same size and identical
// cells. It is the byte-identical comparison of the differential and soak
// tests — two equal matrices render, serialize and map identically.
func (m *Matrix) Equal(other *Matrix) bool {
	return other != nil && other.n == m.n && slices.Equal(m.cells, other.cells)
}

// Sub returns m - base cell-wise (saturating at zero). With a cumulative
// detector matrix, Sub against the previous snapshot yields the epoch
// delta. It returns nil when the sizes differ.
func (m *Matrix) Sub(base *Matrix) *Matrix {
	if base == nil {
		return m.Clone()
	}
	if base.n != m.n {
		return nil
	}
	out := NewMatrix(m.n)
	for i, w := range m.cells {
		if bw := base.cells[i]; w > bw {
			out.cells[i] = w - bw
		}
	}
	return out
}

// Flatten returns the upper triangle (i < j) as float64s in row order,
// the vector form used for similarity scoring.
func (m *Matrix) Flatten() []float64 {
	out := make([]float64, 0, m.n*(m.n-1)/2)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			out = append(out, float64(m.At(i, j)))
		}
	}
	return out
}

// Similarity returns the Pearson correlation between the upper triangles of
// two matrices — the accuracy score used to compare a detected pattern
// against the oracle (how well Figures 4/5 match the true pattern). Returns
// 0 when the sizes differ.
func (m *Matrix) Similarity(other *Matrix) float64 {
	if other == nil || other.n != m.n {
		return 0
	}
	return stats.PearsonCorrelation(m.Flatten(), other.Flatten())
}

// Normalized returns the matrix scaled so its largest cell is 1.0.
func (m *Matrix) Normalized() [][]float64 {
	mx := m.Max()
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = make([]float64, m.n)
		if mx == 0 {
			continue
		}
		for j := range out[i] {
			out[i][j] = float64(m.At(i, j)) / float64(mx)
		}
	}
	return out
}

// shade maps a normalized intensity to an ASCII glyph ramp, darkest last —
// the textual equivalent of the grey-scale cells of Figures 4 and 5.
var shades = []rune{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Heatmap renders the matrix as an ASCII heat map in the style of
// Figures 4/5: darker cells mean more communication, normalized to the
// matrix maximum.
func (m *Matrix) Heatmap() string {
	norm := m.Normalized()
	var b strings.Builder
	b.WriteString("    ")
	for j := 0; j < m.n; j++ {
		fmt.Fprintf(&b, "%2d ", j)
	}
	b.WriteByte('\n')
	for i := 0; i < m.n; i++ {
		fmt.Fprintf(&b, "%2d  ", i)
		for j := 0; j < m.n; j++ {
			var g rune
			if i == j {
				g = '·'
			} else {
				idx := int(norm[i][j] * float64(len(shades)-1))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
				g = shades[idx]
			}
			fmt.Fprintf(&b, " %c ", g)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the raw counts.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NeighborFraction returns the fraction of total communication that occurs
// between adjacent thread IDs (|i-j| == 1). Domain-decomposition workloads
// (BT, IS, LU, MG, SP, UA in the paper) concentrate communication on
// neighbors; homogeneous workloads (CG, EP, FT) do not. The harness uses
// this to verify pattern shapes.
func (m *Matrix) NeighborFraction() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	var nb uint64
	for i := 0; i+1 < m.n; i++ {
		nb += m.At(i, i+1)
	}
	return float64(nb) / float64(total)
}
