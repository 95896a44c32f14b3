package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"tlbmap/internal/comm"
	"tlbmap/internal/core"
	"tlbmap/internal/mem"
	"tlbmap/internal/tlb"
)

// Table1 renders the mechanism comparison of Table I, combining the paper's
// design parameters with the cycle costs measured for the two detection
// routines (Section VI-C).
func Table1(cfg Config) string {
	cfg = cfg.withDefaults()
	opt := cfg.Options
	sample := opt.SampleEvery
	if sample == 0 {
		sample = core.DefaultSampleEvery
	}
	interval := opt.ScanInterval
	if interval == 0 {
		interval = core.DefaultScanInterval
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\tSoftware-managed TLB\tHardware-managed TLB")
	fmt.Fprintln(w, "Example architecture\tSPARC, MIPS\tIntel x86/x86-64")
	fmt.Fprintf(w, "Trigger\tevery n TLB misses\tevery n cycles\n")
	fmt.Fprintf(w, "Value for n in this run\t%d\t%d\n", sample, interval)
	fmt.Fprintln(w, "Search scope\tpairs with missing TLB\tall pairs of TLBs")
	fmt.Fprintln(w, "Complexity (set-assoc.)\tTheta(P)\tTheta(P^2*S)")
	fmt.Fprintf(w, "Routine cost (cycles)\t%d\t%d\n", comm.SMSearchCycles, comm.HMScanCycles)
	fmt.Fprintln(w, "Hardware modification\tnone\tTLB-read instruction")
	w.Flush()
	return b.String()
}

// Table2 renders the active cache configuration (Table II).
func Table2(cfg Config) string {
	cfg = cfg.withDefaults()
	l1, l2 := mem.DefaultL1Config, mem.DefaultL2Config
	tcfg := cfg.Options.TLB
	if tcfg == (tlb.Config{}) {
		tcfg = tlb.DefaultConfig
	}
	machine := cfg.Machine()
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Parameter\tL1 Cache\tL2 Cache")
	fmt.Fprintf(w, "Size\t%d KiB\t%d MiB\n", l1.SizeBytes>>10, l2.SizeBytes>>20)
	fmt.Fprintf(w, "Number\t%d (private, data)\t%d (shared by 2 cores)\n",
		machine.NumCores(), machine.NumCores()/2)
	fmt.Fprintf(w, "Line size\t%d bytes\t%d bytes\n", mem.LineSize, mem.LineSize)
	fmt.Fprintf(w, "Associativity\t%d ways\t%d ways\n", l1.Ways, l2.Ways)
	fmt.Fprintf(w, "Latency\t%d cycles\t%d cycles\n", l1.Latency, l2.Latency)
	fmt.Fprintln(w, "Policy\twrite-through\twrite-back, MESI")
	fmt.Fprintf(w, "TLB\t%d entries, %d-way\t\n", tcfg.Entries, tcfg.Ways)
	fmt.Fprintf(w, "Memory latency\t%d cycles\t\n", mem.MemLatency)
	w.Flush()
	return b.String()
}

// RenderPatterns renders the detected communication matrices of one
// mechanism as ASCII heat maps — the textual Figures 4 (mech = "SM") and 5
// (mech = "HM"); "oracle" renders the ground-truth reference.
func RenderPatterns(results []PatternResult, mech string) string {
	var b strings.Builder
	for _, r := range results {
		var m *comm.Matrix
		switch mech {
		case "SM":
			m = r.SM.Matrix
		case "HM":
			m = r.HM.Matrix
		default:
			m = r.Oracle.Matrix
		}
		n := 8
		if m != nil {
			n = m.N()
		}
		m = matrixOrEmpty(m, n)
		fmt.Fprintf(&b, "%s (%s, expected: %s, similarity to oracle: SM %.3f / HM %.3f)\n",
			r.Name, mech, r.Expected, r.SMSimilarity(), r.HMSimilarity())
		b.WriteString(m.Heatmap())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure renders one of Figures 6-9 as a normalized table. metric is
// "time" (Fig. 6), "inv" (Fig. 7), "snoop" (Fig. 8) or "l2miss" (Fig. 9).
func RenderFigure(results []PerfResult, metric string) string {
	titles := map[string]string{
		"time":   "Figure 6: execution time (normalized to OS)",
		"inv":    "Figure 7: cache line invalidations (normalized to OS)",
		"snoop":  "Figure 8: snoop transactions (normalized to OS)",
		"l2miss": "Figure 9: L2 cache misses (normalized to OS)",
	}
	var b strings.Builder
	fmt.Fprintln(&b, titles[metric])
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tOS\tSM\tHM")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t1.000\t%.3f\t%.3f\n",
			r.Name, r.Normalized(SMLabel, metric), r.Normalized(HMLabel, metric))
	}
	w.Flush()
	return b.String()
}

// RenderTable3 renders the SM statistics table (Table III).
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table III: statistics for the software-managed TLB")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tTLB miss rate\tmisses sampled\tsearches\ttotal overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f%%\t%.3f%%\t%d\t%.4f%%\n",
			r.Name, r.MissRate*100, r.SampledFraction*100, r.Searches, r.Overhead*100)
	}
	w.Flush()
	return b.String()
}

// RenderHMOverhead renders the HM overhead numbers of Section VI-C.
func RenderHMOverhead(rows []HMOverheadRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "HM mechanism overhead (Section VI-C)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tscans\tmeasured overhead\tat paper's 10M-cycle interval")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.4f%% (every %d cycles)\t%.4f%%\n",
			r.Name, r.Scans, r.Overhead*100, r.Interval, r.PaperIntervalOverhead*100)
	}
	w.Flush()
	return b.String()
}

// RenderTable4 renders the absolute rates of Table IV: execution time and
// invalidations, snoop transactions and L2 misses per second, for each of
// the three placements.
func RenderTable4(results []PerfResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table IV: execution time and event rates per second")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Parameter\tMapping")
	for _, r := range results {
		fmt.Fprintf(w, "\t%s", r.Name)
	}
	fmt.Fprintln(w)
	rows := []struct {
		title string
		get   func(*MappingStats) float64
		fmtV  string
	}{
		{"Time (s)", func(m *MappingStats) float64 { return m.Time.Mean() }, "%.4f"},
		{"Invalidations/s", func(m *MappingStats) float64 { return m.InvPerSec.Mean() }, "%.0f"},
		{"Snoops/s", func(m *MappingStats) float64 { return m.SnoopPerSec.Mean() }, "%.0f"},
		{"L2 misses/s", func(m *MappingStats) float64 { return m.L2MissPerSec.Mean() }, "%.0f"},
	}
	for _, row := range rows {
		for _, label := range []MappingLabel{OSLabel, SMLabel, HMLabel} {
			fmt.Fprintf(w, "%s\t%s", row.title, label)
			for _, r := range results {
				fmt.Fprintf(w, "\t"+row.fmtV, row.get(r.Stats[label]))
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return b.String()
}

// RenderTable5 renders the relative standard deviations of Table V.
func RenderTable5(results []PerfResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table V: standard deviations (percent of mean)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Parameter\tMapping")
	for _, r := range results {
		fmt.Fprintf(w, "\t%s", r.Name)
	}
	fmt.Fprintln(w)
	rows := []struct {
		title string
		get   func(*MappingStats) float64
	}{
		{"Time", func(m *MappingStats) float64 { return m.Time.RelStdDev() }},
		{"Invalidations", func(m *MappingStats) float64 { return m.Inv.RelStdDev() }},
		{"Snoops", func(m *MappingStats) float64 { return m.Snoop.RelStdDev() }},
		{"L2 misses", func(m *MappingStats) float64 { return m.L2Miss.RelStdDev() }},
	}
	for _, row := range rows {
		for _, label := range []MappingLabel{OSLabel, SMLabel, HMLabel} {
			fmt.Fprintf(w, "%s\t%s", row.title, label)
			for _, r := range results {
				fmt.Fprintf(w, "\t%.2f%%", row.get(r.Stats[label]))
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return b.String()
}

// RenderStorageCost renders the trace-vs-matrix storage comparison
// (Section II's argument against trace-based detection, measured).
func RenderStorageCost(rows []StorageRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Storage cost: full memory trace vs. communication matrix")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\taccesses\ttrace bytes\tmatrix bytes\tratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0fx\n",
			r.Name, r.Accesses, r.TraceBytes, r.MatrixBytes, r.Ratio())
	}
	w.Flush()
	return b.String()
}
