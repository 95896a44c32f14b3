package comm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// randomMatrix builds a matrix with a seeded random fill.
func randomMatrix(n int, seed int64) *Matrix {
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n*n/2; k++ {
		m.Add(rng.Intn(n), rng.Intn(n), uint64(1+rng.Intn(1000)))
	}
	return m
}

func TestMatrixCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"dense-small", 8},
		{"dense-empty", 4},
		{"dense-one-thread", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := randomMatrix(tc.n, 42)
			if tc.name == "dense-empty" {
				m = NewMatrix(tc.n)
			}
			enc := m.AppendBinary(nil)
			got, rest, err := DecodeMatrix(enc, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("decode left %d trailing bytes", len(rest))
			}
			if !got.Equal(m) {
				t.Fatal("round-tripped matrix differs")
			}
			// The flags byte is ignored: snapshots written while bit 0
			// marked the retired hashed-row representation still decode.
			flagged := append([]byte(nil), enc...)
			flagged[4] = 1
			if again, _, err := DecodeMatrix(flagged, tc.n); err != nil || !again.Equal(m) {
				t.Fatalf("flagged encoding: err %v", err)
			}
			if got.String() != m.String() {
				t.Error("rendering differs after round trip")
			}
			// Deterministic: re-encoding the decoded matrix is byte-identical.
			if !bytes.Equal(got.AppendBinary(nil), enc) {
				t.Error("re-encoding is not byte-identical")
			}
		})
	}
}

// TestMatrixCodecContinuation: a decoded matrix must behave identically
// under further accumulation.
func TestMatrixCodecContinuation(t *testing.T) {
	orig := randomMatrix(32, 7)
	enc := orig.AppendBinary(nil)
	restored, _, err := DecodeMatrix(enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 2000; k++ {
		i, j, w := rng.Intn(32), rng.Intn(32), uint64(1+rng.Intn(50))
		orig.Add(i, j, w)
		restored.Add(i, j, w)
	}
	if !orig.Equal(restored) {
		t.Fatal("restored matrix diverged under continued accumulation")
	}
	if orig.String() != restored.String() {
		t.Fatal("restored matrix renders differently after continuation")
	}
}

// TestMatrixCodecRejectsDamage: damaged encodings are errors. The header
// cases are checked before the n² cells are allocated: a bare header
// claiming 1<<24 threads used to ask for a 2 PiB matrix and kill the
// process.
func TestMatrixCodecRejectsDamage(t *testing.T) {
	m := randomMatrix(16, 3)
	enc := m.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":             {},
		"truncated":         enc[:len(enc)-5],
		"short-hdr":         enc[:10],
		"huge-header":       matrixHeader(1<<24, 0, 0, 0),
		"huge-flagged":      matrixHeader(1<<24, 1, 0, 0),
		"smaller-matrix":    matrixHeader(8, 0, 0, 0),
		"larger-matrix":     matrixHeader(17, 0, 0, 0),
		"row-budget":        matrixHeader(16, 1, 5, 0),
		"nnz-past-triangle": matrixHeader(16, 0, 0, 16*15/2+1),
		"nnz-past-buffer":   matrixHeader(16, 0, 0, 100),
	}
	for name, data := range cases {
		if _, _, err := DecodeMatrix(data, 16); err == nil {
			t.Errorf("%s: decode accepted damaged input", name)
		}
	}
	if _, _, err := DecodeMatrix(matrixHeader(0, 0, 0, 0), 0); err == nil {
		t.Error("decode accepted a zero-thread matrix")
	}
	// Out-of-order cells: swap two cell triples.
	if m.NNZ() >= 2 {
		bad := append([]byte(nil), enc...)
		base := 4 + 1 + 4 + 8
		cell0 := bad[base : base+16]
		cell1 := bad[base+16 : base+32]
		tmp := append([]byte(nil), cell0...)
		copy(cell0, cell1)
		copy(cell1, tmp)
		if _, _, err := DecodeMatrix(bad, 16); err == nil {
			t.Error("decode accepted out-of-order cells")
		}
	}
}

func TestOptionalMatrixCodec(t *testing.T) {
	enc := AppendOptionalMatrix(nil, nil)
	m, rest, err := DecodeOptionalMatrix(enc, 8)
	if err != nil || m != nil || len(rest) != 0 {
		t.Fatalf("nil round trip: m=%v rest=%d err=%v", m, len(rest), err)
	}
	orig := randomMatrix(8, 1)
	enc = AppendOptionalMatrix(nil, orig)
	m, rest, err = DecodeOptionalMatrix(enc, 8)
	if err != nil || len(rest) != 0 {
		t.Fatalf("non-nil round trip: rest=%d err=%v", len(rest), err)
	}
	if !m.Equal(orig) {
		t.Fatal("optional matrix round trip differs")
	}
	if _, _, err := DecodeOptionalMatrix([]byte{7}, 8); err == nil {
		t.Error("bad presence byte accepted")
	}
	if _, _, err := DecodeOptionalMatrix(enc, 9); err == nil {
		t.Error("optional matrix for the wrong thread count accepted")
	}
}

// matrixHeader builds a bare 17-byte matrix header.
func matrixHeader(n uint32, flags byte, budget uint32, nnz uint64) []byte {
	h := binary.LittleEndian.AppendUint32(nil, n)
	h = append(h, flags)
	h = binary.LittleEndian.AppendUint32(h, budget)
	return binary.LittleEndian.AppendUint64(h, nnz)
}

// FuzzDecodeMatrix: decoding arbitrary bytes for a small expected thread
// count never panics, and whatever decodes re-encodes to bytes that decode
// back to an equal matrix and re-encode identically.
func FuzzDecodeMatrix(f *testing.F) {
	for _, n := range []int{1, 2, 5, 16} {
		f.Add(uint8(n), randomMatrix(n, int64(n)).AppendBinary(nil))
		f.Add(uint8(n), NewMatrix(n).AppendBinary(nil))
	}
	flagged := randomMatrix(4, 9).AppendBinary(nil)
	flagged[4] = 1
	f.Add(uint8(4), flagged)
	f.Add(uint8(8), matrixHeader(1<<24, 0, 0, 0))
	f.Add(uint8(8), matrixHeader(8, 0, 3, 0))
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := 1 + int(nb%16)
		m, rest, err := DecodeMatrix(data, n)
		if err != nil {
			return
		}
		if m.N() != n || len(rest) > len(data) {
			t.Fatalf("decoded n=%d (want %d), %d of %d bytes left", m.N(), n, len(rest), len(data))
		}
		enc := m.AppendBinary(nil)
		again, tail, err := DecodeMatrix(enc, n)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if len(tail) != 0 || !again.Equal(m) {
			t.Fatal("decode∘encode does not round-trip")
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}
