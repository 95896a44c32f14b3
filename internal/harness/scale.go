package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"tlbmap/internal/core"
	"tlbmap/internal/mapping"
	"tlbmap/internal/npb"
	"tlbmap/internal/runner"
	"tlbmap/internal/topology"
)

// ScaleStudyConfig parameterizes the manycore scale-up study: detection
// throughput and mapping quality as the core count grows past the sizes
// the paper's 8-core evaluation used.
type ScaleStudyConfig struct {
	Config
	// Cores is the machine-size sweep; every entry must be a valid
	// topology.Manycore count (power-of-two multiple of 32). Nil selects
	// {64, 256}.
	Cores []int
	// Mappers names the mapping algorithms to time and score per cell:
	// "greedy", "multilevel", "auto" or "edmonds". Nil selects
	// {"greedy", "multilevel", "auto"}. Edmonds is skipped (with a
	// progress note) above mapping.DefaultAutoThreshold cores — O(T³)
	// per hierarchy level is exactly what the study exists to avoid.
	Mappers []string
	// RowBudget, when positive, trims a copy of each detected matrix to
	// its RowBudget heaviest partners per row (comm.Matrix.KeepHeaviest)
	// before mapping, to measure what a top-k sketch costs in mapping
	// quality. 0 maps the exact matrix.
	RowBudget int
	// JobTimeout bounds each study cell (0 = no limit).
	JobTimeout time.Duration
}

func (c ScaleStudyConfig) withScaleDefaults() ScaleStudyConfig {
	if c.Options.SampleEvery == 0 {
		c.Options.SampleEvery = 1
	}
	if len(c.Benchmarks) == 0 {
		// Two contrasting shapes are enough for the sweep: CG's homogeneous
		// pattern and LU's decomposition-with-distant-partner pattern.
		c.Benchmarks = []string{"CG", "LU"}
	}
	c.Config = c.Config.withDefaults()
	if len(c.Cores) == 0 {
		c.Cores = []int{64, 256}
	}
	if len(c.Mappers) == 0 {
		c.Mappers = []string{"greedy", "multilevel", "auto"}
	}
	return c
}

// ScaleRow is one (benchmark, core count, mapper) cell of the scale study.
type ScaleRow struct {
	Benchmark string
	Cores     int
	// EventsPerSec is the detection run's simulation throughput:
	// simulated accesses per wall-clock second.
	EventsPerSec float64
	// NNZ counts the communicating pairs of the mapped matrix (after the
	// row budget, if any).
	NNZ int
	// Mapper names the algorithm of this row.
	Mapper string
	// MapMillis is the wall-clock mapping time.
	MapMillis float64
	// CostRatio is Cost(mapped) / Cost(identity) on the machine's
	// latency hierarchy — below 1 the mapper beat the identity
	// placement, and lower is better.
	CostRatio float64
}

// scaleCell is one detection job; all of its mappers share the run.
type scaleCell struct {
	bench string
	cores int
}

// scaleMapper resolves a CLI mapper name.
func scaleMapper(name string) (mapping.Algorithm, error) {
	switch name {
	case "edmonds":
		return mapping.NewEdmonds(), nil
	case "greedy":
		return mapping.NewGreedyMatch(), nil
	case "multilevel":
		return mapping.NewMultilevel(), nil
	case "auto":
		return mapping.NewAuto(), nil
	default:
		return nil, fmt.Errorf("harness: unknown mapper %q (have edmonds, greedy, multilevel, auto)", name)
	}
}

// RunScaleStudy sweeps core counts across benchmarks on the canonical
// manycore topology: per cell it runs SM detection with one thread per
// core, reports detection throughput and matrix shape, then times and
// scores every requested mapper on the detected matrix. Cells fan out on
// the hardened runner like every other study.
func RunScaleStudy(ctx context.Context, cfg ScaleStudyConfig) ([]ScaleRow, []*runner.JobError, error) {
	cfg = cfg.withScaleDefaults()
	for _, name := range cfg.Mappers {
		if _, err := scaleMapper(name); err != nil {
			return nil, nil, err
		}
	}
	var cells []scaleCell
	for _, bench := range cfg.Benchmarks {
		for _, cores := range cfg.Cores {
			cells = append(cells, scaleCell{bench, cores})
		}
	}

	pool := cfg.pool("scale-study")
	if cfg.JobTimeout > 0 {
		pool.Timeout = cfg.JobTimeout
	}
	rows, failed := runner.MapPartial(ctx, pool, len(cells), func(ctx context.Context, i int) ([]ScaleRow, error) {
		out, err := cfg.runCell(cells[i])
		if err == nil {
			for _, r := range out {
				cfg.logf("scale-study %s/%d %s: %.0f events/sec, map %.1f ms, ratio %.3f",
					r.Benchmark, r.Cores, r.Mapper, r.EventsPerSec, r.MapMillis, r.CostRatio)
			}
		}
		return out, err
	})
	if err := ctx.Err(); err != nil {
		return nil, failed, err
	}
	if len(failed) == len(cells) && len(cells) > 0 {
		return nil, failed, fmt.Errorf("harness: every scale-study cell failed; first: %w", failed[0])
	}
	bad := map[int]bool{}
	for _, f := range failed {
		bad[f.Index] = true
	}
	var out []ScaleRow
	for i, cellRows := range rows {
		if !bad[i] {
			out = append(out, cellRows...)
		}
	}
	return out, failed, nil
}

// runCell runs one (benchmark, cores) detection and scores every mapper.
func (c ScaleStudyConfig) runCell(cell scaleCell) ([]ScaleRow, error) {
	machine := topology.Manycore(cell.cores)
	b, err := npb.Get(cell.bench)
	if err != nil {
		return nil, err
	}
	w := core.FromNPB(b, npb.Params{
		Threads: cell.cores,
		Class:   c.Class,
		Seed:    c.jobSeed(cell.bench, "scale", cell.cores),
	})
	opt := c.Options
	opt.Machine = machine

	start := time.Now()
	det, err := core.Detect(w, core.SM, opt)
	if err != nil {
		return nil, fmt.Errorf("%s/%d detect: %w", cell.bench, cell.cores, err)
	}
	wall := time.Since(start).Seconds()
	eventsPerSec := 0.0
	if wall > 0 {
		eventsPerSec = float64(det.Result.Accesses) / wall
	}

	m := det.Matrix
	if c.RowBudget > 0 {
		m = m.Clone()
		m.KeepHeaviest(c.RowBudget)
	}
	identity := make([]int, cell.cores)
	for i := range identity {
		identity[i] = i
	}
	idCost := mapping.Cost(m, machine, identity)

	var rows []ScaleRow
	for _, name := range c.Mappers {
		if name == "edmonds" && cell.cores > mapping.DefaultAutoThreshold {
			c.logf("scale-study %s/%d: skipping edmonds above %d cores (cubic matching)",
				cell.bench, cell.cores, mapping.DefaultAutoThreshold)
			continue
		}
		algo, err := scaleMapper(name)
		if err != nil {
			return nil, err
		}
		mapStart := time.Now()
		place, err := algo.Map(m, machine)
		mapWall := time.Since(mapStart)
		if err != nil {
			return nil, fmt.Errorf("%s/%d %s: %w", cell.bench, cell.cores, name, err)
		}
		ratio := 1.0
		if idCost > 0 {
			ratio = float64(mapping.Cost(m, machine, place)) / float64(idCost)
		}
		rows = append(rows, ScaleRow{
			Benchmark:    cell.bench,
			Cores:        cell.cores,
			EventsPerSec: eventsPerSec,
			NNZ:          m.NNZ(),
			Mapper:       name,
			MapMillis:    float64(mapWall.Microseconds()) / 1000,
			CostRatio:    ratio,
		})
	}
	return rows, nil
}

// RenderScaleStudy prints the scale sweep as text.
func RenderScaleStudy(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Manycore scale-up study (SM detection, one thread per core)")
	fmt.Fprintln(&b, "events/sec: simulated accesses per wall-clock second of the detection run")
	fmt.Fprintln(&b, "ratio: mapped communication cost / identity placement cost (lower is better)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tcores\tevents/sec\tnnz\tmapper\tmap-ms\tratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3g\t%d\t%s\t%.1f\t%.3f\n",
			r.Benchmark, r.Cores, r.EventsPerSec, r.NNZ, r.Mapper, r.MapMillis, r.CostRatio)
	}
	w.Flush()
	return b.String()
}

// WriteScaleStudyCSV exports the scale sweep as CSV.
func WriteScaleStudyCSV(w io.Writer, rows []ScaleRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "cores", "events_per_sec", "nnz",
		"mapper", "map_ms", "cost_ratio",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for _, r := range rows {
		rec := []string{
			r.Benchmark, strconv.Itoa(r.Cores), f(r.EventsPerSec),
			strconv.Itoa(r.NNZ), r.Mapper, f(r.MapMillis), f(r.CostRatio),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
