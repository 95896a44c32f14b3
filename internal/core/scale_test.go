package core

import (
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/topology"
)

// TestCheckedDetectionPast64Domains runs class-S CG and MG detections under
// SM and HM with 512 threads on Manycore(512), whose 128 L2 domains take two
// words of the memory hierarchy's sharing-directory mask per line, with the
// invariant suite armed (Options.Check: the sequential memory oracle, the
// MESI legality checker and counter conservation watch every access). Each
// run must also reproduce the simulated cycles, the machine-wide counters
// and the detected matrix's total recorded when the hierarchy still probed
// every L2 domain on machines of more than 64 domains. SM searches on every
// TLB miss: at class S a thread misses about seven times, under the default
// sampling period. MG finishes before HM's first scan, so its HM matrix is
// empty and the cell checks the hierarchy alone.
func TestCheckedDetectionPast64Domains(t *testing.T) {
	if testing.Short() {
		t.Skip("512-thread checked detections skipped in short mode")
	}
	if raceEnabled {
		t.Skip("512-thread checked detections are past the race stage's timeout")
	}
	for _, c := range []struct {
		bench    string
		mech     Mechanism
		cycles   uint64
		counters string
		total    uint64
	}{
		{"CG", SM, 1759547, "detection_cycles=829752 detection_searches=3592 inter_chip_traffic=29648 intra_chip_traffic=3672 invalidations=54162 l1_hits=476506 l1_misses=80550 l2_hits=55280 l2_misses=22578 local_mem_accesses=71 memory_reads=1088 memory_writes=704 remote_mem_accesses=1017 snoop_transactions=21490 tlb_hits=553464 tlb_misses=3592", 697940},
		{"CG", HM, 4291597, "detection_cycles=1812722688 detection_searches=42 inter_chip_traffic=29653 intra_chip_traffic=3667 invalidations=54162 l1_hits=476506 l1_misses=80550 l2_hits=55280 l2_misses=22578 local_mem_accesses=71 memory_reads=1088 memory_writes=704 remote_mem_accesses=1017 snoop_transactions=21490 tlb_hits=553464 tlb_misses=3592", 25625397},
		{"MG", SM, 86614, "detection_cycles=17556 detection_searches=76 intra_chip_traffic=1264 invalidations=2992 l1_hits=97208 l1_misses=8776 l2_hits=2488 l2_misses=1808 local_mem_accesses=1152 memory_reads=1152 memory_writes=464 snoop_transactions=656 tlb_hits=105908 tlb_misses=76", 221},
		{"MG", HM, 85094, "intra_chip_traffic=1264 invalidations=2992 l1_hits=97208 l1_misses=8776 l2_hits=2488 l2_misses=1808 local_mem_accesses=1152 memory_reads=1152 memory_writes=464 snoop_transactions=656 tlb_hits=105908 tlb_misses=76", 0},
	} {
		t.Run(c.bench+"/"+string(c.mech), func(t *testing.T) {
			b, err := npb.Get(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			w := FromNPB(b, npb.Params{Threads: 512, Class: npb.ClassS, Seed: 1})
			d, err := Detect(w, c.mech, Options{Machine: topology.Manycore(512), SampleEvery: 1, Check: true})
			if err != nil {
				t.Fatal(err)
			}
			if d.Result.Cycles != c.cycles {
				t.Errorf("cycles %d, want %d", d.Result.Cycles, c.cycles)
			}
			if got := d.Result.Counters.String(); got != c.counters {
				t.Errorf("counters\n  got  %s\n  want %s", got, c.counters)
			}
			if got := d.Matrix.Total(); got != c.total {
				t.Errorf("matrix total %d, want %d", got, c.total)
			}
		})
	}
}
