package comm

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func sampleMatrix() *Matrix {
	m := NewMatrix(4)
	m.Add(0, 1, 10)
	m.Add(1, 2, 5)
	m.Add(0, 3, 7)
	return m
}

func TestJSONRoundTrip(t *testing.T) {
	m := sampleMatrix()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.Similarity(m) < 0.9999 || back.Total() != m.Total() {
		t.Errorf("roundtrip mismatch:\n%s\nvs\n%s", m, &back)
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"n":0,"cells":[]}`,
		`{"n":2,"cells":[[0,1]]}`,       // missing row
		`{"n":2,"cells":[[0,1],[1]]}`,   // ragged
		`{"n":2,"cells":[[0,1],[2,0]]}`, // asymmetric
		`{"n":2,"cells":[[5,1],[1,0]]}`, // diagonal
		`not json`,
	}
	for _, c := range cases {
		var m Matrix
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := sampleMatrix()
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatalf("cell (%d,%d): %d vs %d", i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"ragged":      "0,1\n1\n",
		"non-numeric": "0,x\nx,0\n",
		"asymmetric":  "0,1\n2,0\n",
		"diagonal":    "5,1\n1,0\n",
		"non-square":  "0,1,2\n1,0,3\n",
	}
	for name, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// UnmarshalJSON decodes a matrix previously produced by MarshalJSON,
// validating shape and symmetry.
func (m *Matrix) UnmarshalJSON(data []byte) error {
	var in matrixJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.N <= 0 || len(in.Cells) != in.N {
		return fmt.Errorf("comm: malformed matrix: n=%d with %d rows", in.N, len(in.Cells))
	}
	fresh := NewMatrix(in.N)
	for i, row := range in.Cells {
		if len(row) != in.N {
			return fmt.Errorf("comm: row %d has %d cells, want %d", i, len(row), in.N)
		}
		for j, v := range row {
			if in.Cells[j][i] != v {
				return fmt.Errorf("comm: asymmetric cells (%d,%d)", i, j)
			}
			if i != j && v != 0 {
				fresh.Set(i, j, v)
			}
			if i == j && v != 0 {
				return fmt.Errorf("comm: non-zero diagonal at %d", i)
			}
		}
	}
	*m = *fresh
	return nil
}

// ReadCSV parses a matrix written by WriteCSV, validating shape, symmetry
// and an all-zero diagonal.
func ReadCSV(r io.Reader) (*Matrix, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("comm: reading csv: %w", err)
	}
	n := len(records)
	if n == 0 {
		return nil, fmt.Errorf("comm: empty csv")
	}
	// Parse into a scratch grid first: Matrix.Set mirrors both halves, so
	// symmetry must be validated against the raw input, not the matrix.
	vals := make([][]uint64, n)
	for i, row := range records {
		if len(row) != n {
			return nil, fmt.Errorf("comm: row %d has %d fields, want %d", i, len(row), n)
		}
		vals[i] = make([]uint64, n)
		for j, field := range row {
			v, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("comm: cell (%d,%d): %w", i, j, err)
			}
			if i == j && v != 0 {
				return nil, fmt.Errorf("comm: non-zero diagonal at %d", i)
			}
			vals[i][j] = v
		}
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vals[i][j] != vals[j][i] {
				return nil, fmt.Errorf("comm: asymmetric cells (%d,%d)", i, j)
			}
			m.Set(i, j, vals[i][j])
		}
	}
	return m, nil
}
