package comm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// model is the reference the matrix is checked against: each unordered
// pair keyed once as (low, high), zero cells absent.
type model map[[2]int]uint64

func pair(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

func (md model) add(i, j int, w uint64) {
	if i != j && w != 0 {
		md[pair(i, j)] += w
	}
}

func (md model) set(i, j int, w uint64) {
	switch {
	case i == j:
	case w == 0:
		delete(md, pair(i, j))
	default:
		md[pair(i, j)] = w
	}
}

// sub is the saturating cell-wise difference md - base.
func (md model) sub(base model) model {
	out := model{}
	for p, w := range md {
		if w > base[p] {
			out[p] = w - base[p]
		}
	}
	return out
}

// requireModel checks m against md through every accessor, the binary
// codec, and the JSON and CSV renderings, which are rebuilt from the
// model independently of the matrix.
func requireModel(t *testing.T, m *Matrix, md model, n int, ctx string) {
	t.Helper()
	if m.N() != n {
		t.Fatalf("%s: size %d, want %d", ctx, m.N(), n)
	}
	var total, mx uint64
	for _, w := range md {
		total += w
		mx = max(mx, w)
	}
	if m.Total() != total || m.Max() != mx || m.NNZ() != len(md) {
		t.Fatalf("%s: Total/Max/NNZ = %d/%d/%d, model %d/%d/%d",
			ctx, m.Total(), m.Max(), m.NNZ(), total, mx, len(md))
	}
	grid := make([][]uint64, n)
	for i := range grid {
		grid[i] = make([]uint64, n)
		for j := range grid[i] {
			grid[i][j] = md[pair(i, j)]
			if i == j {
				grid[i][j] = 0
			}
			if got := m.At(i, j); got != grid[i][j] {
				t.Fatalf("%s: At(%d,%d) = %d, model %d", ctx, i, j, got, grid[i][j])
			}
		}
	}
	keys := make([][2]int, 0, len(md))
	for p := range md {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	k := 0
	m.ForEach(func(i, j int, w uint64) {
		if k >= len(keys) || keys[k] != [2]int{i, j} || md[keys[k]] != w {
			t.Fatalf("%s: ForEach visit %d = (%d,%d,%d) disagrees with the model", ctx, k, i, j, w)
		}
		k++
	})
	if k != len(keys) {
		t.Fatalf("%s: ForEach visited %d cells, model has %d", ctx, k, len(keys))
	}

	fromModel := NewMatrix(n)
	for p, w := range md {
		fromModel.Set(p[1], p[0], w) // the mirror order, on purpose
	}
	if !m.Equal(fromModel) || !fromModel.Equal(m) {
		t.Fatalf("%s: Equal rejects a matrix built from the model", ctx)
	}
	if len(keys) > 0 {
		p := keys[len(keys)/2]
		fromModel.Add(p[0], p[1], 1)
		if m.Equal(fromModel) {
			t.Fatalf("%s: Equal accepts a matrix differing at %v", ctx, p)
		}
	}
	decoded, rest, err := DecodeMatrix(m.AppendBinary(nil), n)
	if err != nil || len(rest) != 0 || !decoded.Equal(m) {
		t.Fatalf("%s: codec round trip: err %v, %d bytes left", ctx, err, len(rest))
	}

	wantJSON, err := json.Marshal(matrixJSON{N: n, Cells: grid})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: JSON bytes differ:\n got %s\nwant %s", ctx, gotJSON, wantJSON)
	}
	var wantCSV strings.Builder
	for _, row := range grid {
		for j, w := range row {
			if j > 0 {
				wantCSV.WriteByte(',')
			}
			wantCSV.WriteString(strconv.FormatUint(w, 10))
		}
		wantCSV.WriteByte('\n')
	}
	var gotCSV bytes.Buffer
	if err := m.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != wantCSV.String() {
		t.Fatalf("%s: CSV bytes differ", ctx)
	}
}

// TestSparseDenseDifferential drives the dense matrix and a sparse map
// model through identical randomized operation sequences — Add, Set
// (including zeroing), Inc, diagonal no-ops, Sub, Clone, Reset, with
// indices drawn in both orders — and requires every accessor, Equal, the
// codec and both serializers to agree with the model.
func TestSparseDenseDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 32, 128} {
		rng := rand.New(rand.NewSource(int64(n) * 31337))
		m, md := NewMatrix(n), model{}
		var prev *Matrix
		var mdPrev model
		for step := 0; step < 400; step++ {
			i, j := rng.Intn(n), rng.Intn(n) // diagonal draws included on purpose
			switch rng.Intn(8) {
			case 0, 1, 2:
				w := uint64(rng.Intn(1000))
				m.Add(i, j, w)
				md.add(i, j, w)
			case 3:
				m.Inc(i, j)
				md.add(i, j, 1)
			case 4:
				w := uint64(rng.Intn(500))
				m.Set(i, j, w)
				md.set(i, j, w)
			case 5:
				m.Set(i, j, 0)
				md.set(i, j, 0)
			case 6:
				prev, mdPrev = m.Clone(), maps.Clone(md)
				requireModel(t, prev, mdPrev, n, "clone")
			case 7:
				if prev != nil {
					requireModel(t, m.Sub(prev), md.sub(mdPrev), n, "sub")
				}
			}
		}
		requireModel(t, m, md, n, "final")
		if prev != nil {
			requireModel(t, prev, mdPrev, n, "clone after further ops")
		}
		m.Reset()
		requireModel(t, m, model{}, n, "reset")
	}
}

// TestSparseDenseSerializationRoundTrip: a randomly filled matrix must
// survive JSON and CSV round trips unchanged, matching the model it was
// built alongside.
func TestSparseDenseSerializationRoundTrip(t *testing.T) {
	n := 16
	rng := rand.New(rand.NewSource(99))
	src, md := NewMatrix(n), model{}
	for k := 0; k < 40; k++ {
		i, j, w := rng.Intn(n), rng.Intn(n), uint64(rng.Intn(10_000))
		src.Add(i, j, w)
		md.add(i, j, w)
	}

	raw, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	requireModel(t, &back, md, n, "json")
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatalf("JSON round trip not stable:\n first %s\nsecond %s", raw, again)
	}

	var csvBuf bytes.Buffer
	if err := src.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	requireModel(t, fromCSV, md, n, "csv")
}

// TestRowBudgetSketch: KeepHeaviest must leave every row at or under k
// partners, zero the lightest cells first with the higher column going
// first on ties, and leave the matrix alone for k <= 0.
func TestRowBudgetSketch(t *testing.T) {
	n := 8
	m := NewMatrix(n)
	m.Set(0, 1, 50)
	m.Set(0, 2, 40)
	m.Set(3, 0, 5)
	m.KeepHeaviest(2)
	if m.At(0, 3) != 0 || m.At(3, 0) != 0 {
		t.Fatalf("k=2: lightest cell (0,3) = %d, want zeroed", m.At(0, 3))
	}
	if m.At(0, 1) != 50 || m.At(0, 2) != 40 {
		t.Fatalf("k=2: heavy cells lost: (0,1)=%d (0,2)=%d", m.At(0, 1), m.At(0, 2))
	}
	// Tie: weights equal, the higher column goes.
	m2 := NewMatrix(n)
	m2.Set(0, 1, 10)
	m2.Set(0, 2, 10)
	m2.Set(0, 3, 10)
	m2.KeepHeaviest(2)
	if m2.At(0, 3) != 0 || m2.At(0, 1) != 10 || m2.At(0, 2) != 10 {
		t.Fatalf("tie eviction not deterministic: row 0 = %d %d %d",
			m2.At(0, 1), m2.At(0, 2), m2.At(0, 3))
	}
	// Rows are trimmed in index order: row 0 keeps (0,2) and zeroes (0,1),
	// which leaves row 1 a single partner, so (1,3) survives k=1 although
	// it was row 1's lighter cell before row 0 was trimmed.
	m3 := NewMatrix(n)
	m3.Set(0, 1, 5)
	m3.Set(0, 2, 9)
	m3.Set(1, 3, 2)
	m3.KeepHeaviest(1)
	if m3.At(0, 2) != 9 || m3.At(0, 1) != 0 || m3.At(1, 3) != 2 {
		t.Fatalf("k=1 order: got (0,1)=%d (0,2)=%d (1,3)=%d",
			m3.At(0, 1), m3.At(0, 2), m3.At(1, 3))
	}
	for r := 0; r < n; r++ {
		partners := 0
		for c := 0; c < n; c++ {
			if m3.At(r, c) != 0 {
				partners++
			}
		}
		if partners > 1 {
			t.Fatalf("k=1: row %d kept %d partners", r, partners)
		}
	}
	before := m.Clone()
	m.KeepHeaviest(0)
	m.KeepHeaviest(-3)
	if !m.Equal(before) {
		t.Fatal("k <= 0 changed the matrix")
	}
}

// heaviestFixture fills an n-thread matrix from a seeded source: every
// pair when full, else 32·n random draws (diagonal draws are no-ops).
// ties draws weights from 1..3, so most rows hold long runs of equal
// weights and the column tie-break decides most evictions.
func heaviestFixture(n int, full, ties bool, seed int64) *Matrix {
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(seed))
	weight := func() uint64 {
		if ties {
			return uint64(1 + rng.Intn(3))
		}
		return uint64(1 + rng.Intn(1<<20))
	}
	if full {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Add(i, j, weight())
			}
		}
		return m
	}
	for k := 0; k < 32*n; k++ {
		m.Add(rng.Intn(n), rng.Intn(n), weight())
	}
	return m
}

// TestKeepHeaviestGolden pins KeepHeaviest to digests recorded from the
// retired accumulate-time row budget of the hashed-row representation
// (commit aa72475), applied to the same fixtures after filling: the
// one-shot trim must evict exactly the cells the budget did.
func TestKeepHeaviestGolden(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		ties   bool
		k      int
		digest string
	}{
		{"n256-ties-k1", 256, true, 1, "c9b386fc58246f9cbbd2d9874c25eca9e65bea91f13486caf3267f323c926f63"},
		{"n256-ties-k2", 256, true, 2, "035e3e61f8f88f4b1348d7a4d47f8649e1cfccc92ebd8cd4b256edf161a79d9f"},
		{"n256-ties-k32", 256, true, 32, "5a066b122533e58c96d7d86a99927a1632a4370765d6697ba043a7e6663800da"},
		{"n256-spread-k1", 256, false, 1, "dd12a2f15f59713bb1636bd0cc98dd2d4ac9ee4570bf84b7dd3ce7ea9f0a6da4"},
		{"n256-spread-k2", 256, false, 2, "7c1f41e7b5358d05b2d3a461d8d94677170ee8fdc4d6cb13d5f43bdbf8af3ba2"},
		{"n256-spread-k32", 256, false, 32, "1c58d679f35e8964d9b7619381824f0ac3b48cf1201225399aabd6a29c1a1276"},
		{"n1024-ties-k1", 1024, true, 1, "cc1219d115751866605993b8e24373aa356c08394b50e5f652135f21379429e5"},
		{"n1024-ties-k2", 1024, true, 2, "4ac870a01c897fde490349e26809604b4a81f3c3c8db4879b97b9c3d241274cb"},
		{"n1024-ties-k32", 1024, true, 32, "abb18cfc27003f5758c3fa53217d65f537dfd2e2a09b4cf38b75a80403ad8be0"},
		{"n1024-spread-k1", 1024, false, 1, "03fa7ad25564359dbe5a12ff6280a077894b66d582a91aa327543fcdf7988a18"},
		{"n1024-spread-k2", 1024, false, 2, "90fe25a0e111479d46d41c5c2f34c68f2c37886bc608918be516b5dcbcd742e8"},
		{"n1024-spread-k32", 1024, false, 32, "194163322b78cb0ac4800a0374112f59100f5ce07a5dfd217d46263b575d324c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := heaviestFixture(tc.n, tc.n == 256, tc.ties, int64(tc.n)*7+int64(tc.k))
			m.KeepHeaviest(tc.k)
			h := sha256.New()
			fmt.Fprintf(h, "n=%d\n", m.N())
			m.ForEach(func(i, j int, w uint64) { fmt.Fprintf(h, "%d %d %d\n", i, j, w) })
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Fatalf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
