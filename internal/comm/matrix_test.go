package comm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewMatrixPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0) accepted")
		}
	}()
	NewMatrix(0)
}

func TestMatrixSymmetry(t *testing.T) {
	m := NewMatrix(4)
	m.Add(1, 3, 5)
	m.Inc(3, 1)
	if m.At(1, 3) != 6 || m.At(3, 1) != 6 {
		t.Errorf("asymmetric: %d vs %d", m.At(1, 3), m.At(3, 1))
	}
	m.Add(2, 2, 100) // diagonal is a no-op
	if m.At(2, 2) != 0 {
		t.Error("diagonal accepted communication")
	}
}

func TestTotalAndMax(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 1, 2)
	m.Add(1, 2, 7)
	if m.Total() != 9 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.Max() != 7 {
		t.Errorf("Max = %d", m.Max())
	}
}

func TestCloneAndReset(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 2, 4)
	c := m.Clone()
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset failed")
	}
	if c.At(0, 2) != 4 {
		t.Error("clone shares storage")
	}
}

func TestFlattenOrderAndLength(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 1)
	m.Add(0, 3, 3)
	m.Add(2, 3, 5)
	f := m.Flatten()
	if len(f) != 6 {
		t.Fatalf("len = %d, want 6", len(f))
	}
	// Upper triangle row order: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3).
	want := []float64{1, 0, 3, 0, 0, 5}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("Flatten[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestSimilarity(t *testing.T) {
	a := NewMatrix(4)
	b := NewMatrix(4)
	a.Add(0, 1, 10)
	a.Add(2, 3, 5)
	b.Add(0, 1, 20)
	b.Add(2, 3, 10)
	if s := a.Similarity(b); s < 0.999 {
		t.Errorf("proportional matrices similarity = %v", s)
	}
	if a.Similarity(nil) != 0 {
		t.Error("nil similarity should be 0")
	}
	if a.Similarity(NewMatrix(6)) != 0 {
		t.Error("size-mismatch similarity should be 0")
	}
}

func TestNormalized(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 1, 4)
	m.Add(1, 2, 2)
	n := m.Normalized()
	if n[0][1] != 1 || n[1][2] != 0.5 || n[0][2] != 0 {
		t.Errorf("normalized = %v", n)
	}
	empty := NewMatrix(2).Normalized()
	if empty[0][1] != 0 {
		t.Error("empty matrix normalization should be zero")
	}
}

func TestHeatmapRendering(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 1, 100)
	h := m.Heatmap()
	if !strings.Contains(h, "@") {
		t.Errorf("max cell not darkest:\n%s", h)
	}
	if !strings.Contains(h, "·") {
		t.Error("diagonal marker missing")
	}
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Errorf("heatmap has %d lines", len(lines))
	}
}

func TestStringRendering(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 1, 3)
	if got := m.String(); got != "0 3\n3 0\n" {
		t.Errorf("String = %q", got)
	}
}

func TestNeighborFraction(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 10)
	m.Add(1, 2, 10)
	m.Add(2, 3, 10)
	if nf := m.NeighborFraction(); nf != 1 {
		t.Errorf("pure chain neighbor fraction = %v", nf)
	}
	m.Add(0, 3, 30)
	if nf := m.NeighborFraction(); nf != 0.5 {
		t.Errorf("mixed neighbor fraction = %v", nf)
	}
	if NewMatrix(4).NeighborFraction() != 0 {
		t.Error("empty matrix neighbor fraction should be 0")
	}
}

// TestMatrixProperties: symmetry and total consistency under random
// updates.
func TestMatrixProperties(t *testing.T) {
	f := func(updates []struct {
		I, J uint8
		W    uint16
	}) bool {
		m := NewMatrix(8)
		var manual uint64
		for _, u := range updates {
			i, j := int(u.I%8), int(u.J%8)
			m.Add(i, j, uint64(u.W))
			if i != j {
				manual += uint64(u.W)
			}
		}
		if m.Total() != manual {
			return false
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Reset zeroes every cell.
func (m *Matrix) Reset() { clear(m.cells) }
