package harness

import (
	"bytes"
	"context"
	"testing"

	"tlbmap/internal/npb"
)

// fixtureScaleRows are fixed, hand-built study rows: wall-clock fields
// carry made-up values so the goldens pin layout, not timing.
func fixtureScaleRows() []ScaleRow {
	return []ScaleRow{
		{Benchmark: "CG", Cores: 64, EventsPerSec: 4.2e6, NNZ: 2016,
			Mapper: "greedy", MapMillis: 0.5, CostRatio: 1.001},
		{Benchmark: "CG", Cores: 64, EventsPerSec: 4.2e6, NNZ: 2016,
			Mapper: "multilevel", MapMillis: 150.2, CostRatio: 0.997},
		{Benchmark: "LU", Cores: 256, EventsPerSec: 3.1e6, NNZ: 31873,
			Mapper: "multilevel", MapMillis: 480.9, CostRatio: 0.412},
		{Benchmark: "LU", Cores: 256, EventsPerSec: 3.1e6, NNZ: 31873,
			Mapper: "auto", MapMillis: 481.3, CostRatio: 0.412},
	}
}

// TestScaleRenderGolden pins the text and CSV layouts of the scale study.
func TestScaleRenderGolden(t *testing.T) {
	rows := fixtureScaleRows()
	checkGolden(t, "scale_study.golden", []byte(RenderScaleStudy(rows)))
	var buf bytes.Buffer
	if err := WriteScaleStudyCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scale_study.csv.golden", buf.Bytes())
}

// TestRunScaleStudySmall runs one real 64-core cell end to end: the sweep
// must produce one row per requested mapper with a valid ratio, and the
// edmonds gate must drop the cubic mapper above the auto threshold.
func TestRunScaleStudySmall(t *testing.T) {
	cfg := ScaleStudyConfig{
		Config: Config{
			Benchmarks: []string{"CG"},
			Class:      npb.ClassS,
			Seed:       3,
		},
		Cores:   []int{64},
		Mappers: []string{"greedy", "multilevel", "auto"},
	}
	rows, failed, err := RunScaleStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("%d cells failed; first: %v", len(failed), failed[0])
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Cores != 64 || r.Benchmark != "CG" {
			t.Fatalf("stray row %+v", r)
		}
		if r.EventsPerSec <= 0 {
			t.Fatalf("%s: no throughput measured", r.Mapper)
		}
		if r.CostRatio <= 0 || r.CostRatio > 2 {
			t.Fatalf("%s: implausible cost ratio %f", r.Mapper, r.CostRatio)
		}
		if r.NNZ == 0 {
			t.Fatalf("%s: empty matrix", r.Mapper)
		}
	}

	// Edmonds is gated above the auto threshold: requesting it at 256
	// cores must yield rows only for the scalable mappers.
	cfg.Cores = []int{256}
	cfg.Mappers = []string{"edmonds", "multilevel"}
	rows, failed, err = RunScaleStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("%d cells failed; first: %v", len(failed), failed[0])
	}
	if len(rows) != 1 || rows[0].Mapper != "multilevel" {
		t.Fatalf("edmonds gate failed: rows %+v", rows)
	}

	// The row budget applies at every size: at 64 cores a budget of 2
	// leaves at most 64·2/2 pairs of CG's nearly full matrix.
	cfg.Cores = []int{64}
	cfg.Mappers = []string{"greedy"}
	cfg.RowBudget = 2
	rows, failed, err = RunScaleStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 || len(rows) != 1 {
		t.Fatalf("budgeted cell: %d rows, %d failed", len(rows), len(failed))
	}
	if nnz := rows[0].NNZ; nnz == 0 || nnz > 64 {
		t.Fatalf("row budget 2 at 64 cores left %d pairs, want 1..64", nnz)
	}
}

// TestRunScaleStudyRejectsUnknownMapper: a bad mapper name fails fast,
// before any simulation runs.
func TestRunScaleStudyRejectsUnknownMapper(t *testing.T) {
	cfg := ScaleStudyConfig{
		Config:  Config{Benchmarks: []string{"CG"}, Class: npb.ClassS},
		Cores:   []int{64},
		Mappers: []string{"simulated-annealing"},
	}
	if _, _, err := RunScaleStudy(context.Background(), cfg); err == nil {
		t.Fatal("unknown mapper accepted")
	}
}
