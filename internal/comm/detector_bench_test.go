package comm

import (
	"fmt"
	"testing"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// benchTLBs builds cores TLBs, each warmed with fill pages. Pages are
// consecutive per core (core i holds i*Entries .. i*Entries+fill-1), so
// they spread across sets round-robin: fill = Entries leaves every set
// full, small fills occupy only the first few sets, and no page is shared
// between cores.
func benchTLBs(cores, fill int) []*tlb.TLB {
	tlbs := make([]*tlb.TLB, cores)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.DefaultConfig)
		for p := 0; p < fill; p++ {
			tlbs[i].Insert(vm.Translation{Page: vm.Page(i*tlb.DefaultConfig.Entries + p), Frame: vm.Frame(p)})
		}
	}
	return tlbs
}

// benchView is benchTLBs behind a view, as the engine hands it to the
// detectors.
func benchView(cores, fill int) TLBView { return NewTLBView(benchTLBs(cores, fill)) }

// BenchmarkDetectors measures the per-event host cost of each detection
// routine in isolation, on the view the engine hands the detectors, and
// reports an events/sec custom metric (one "event" is one hook
// invocation: a miss for SM, a scan for HM, an access for the oracle).
// scripts/bench.sh records these numbers in BENCH_engine.json.
func BenchmarkDetectors(b *testing.B) {
	const cores = 8
	b.Run("SM/miss", func(b *testing.B) {
		v := benchView(cores, tlb.DefaultConfig.Entries)
		d := NewSMDetector(cores, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.OnTLBMiss(i%cores, vm.Page(i), v)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	for _, fc := range []struct {
		name string
		fill int
	}{
		{"full", tlb.DefaultConfig.Entries},
		{"sparse", 2}, // two resident pages per TLB
	} {
		fc := fc
		b.Run("HM/scan-"+fc.name, func(b *testing.B) {
			v := benchView(cores, fc.fill)
			d := NewHMDetector(cores, 1)
			d.MaybeScan(1, v) // arming call: the first MaybeScan never scans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.MaybeScan(uint64(2*i+4), v)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
	b.Run("oracle/access", func(b *testing.B) {
		d := NewOracleDetector(cores, PageGranularity)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A strided walk over 512 pages by rotating threads: exercises
			// both the same-thread fast path and history pushes.
			d.OnAccess(i%cores, vm.Addr(uint64(i%512+1)<<12|uint64(i)&0xfc0))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// Table I: empirical Θ(P) vs Θ(P²·S) scaling of the literal detection
// routines the paper's OS runs (and the simulated charges model): the
// probe of the missing page's set in every remote TLB, and the pairwise
// set-by-set scan. Compare the per-op times across core counts.

// table1TLBs fills every TLB with the same Entries pages, so every set is
// full: each probe finds the page and each set comparison is a full
// Ways × Ways compare.
func table1TLBs(cores int) []*tlb.TLB {
	cfg := tlb.DefaultConfig
	tlbs := make([]*tlb.TLB, cores)
	for i := range tlbs {
		tlbs[i] = tlb.New(cfg)
		for p := 0; p < cfg.Entries; p++ {
			tlbs[i].Insert(vm.Translation{Page: vm.Page(p), Frame: vm.Frame(p)})
		}
	}
	return tlbs
}

// BenchmarkTable1SMSearch measures the software-managed search (Θ(P): one
// set probe per remote TLB).
func BenchmarkTable1SMSearch(b *testing.B) {
	for _, cores := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			tlbs := table1TLBs(cores)
			m := NewMatrix(cores)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probeSearch(m, tlbs, 0, vm.Page(i%tlb.DefaultConfig.Entries))
			}
		})
	}
}

// BenchmarkTable1HMScan measures the hardware-managed scan (Θ(P²·S): all
// pairs of TLBs, set by set).
func BenchmarkTable1HMScan(b *testing.B) {
	for _, cores := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			tlbs := table1TLBs(cores)
			m := NewMatrix(cores)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairwiseScan(m, tlbs)
			}
		})
	}
}
