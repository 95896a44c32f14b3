package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/stats"
)

// perfDigest hashes everything RunPerformance reports for one kernel: the
// SM and HM placements, then every value of every sample of the OS, SM and
// HM statistics as float64 bits, in a fixed order.
func perfDigest(pr PerfResult) string {
	h := sha256.New()
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, place := range [][]int{pr.PlacementSM, pr.PlacementHM} {
		word(uint64(len(place)))
		for _, c := range place {
			word(uint64(c))
		}
	}
	for _, l := range []MappingLabel{OSLabel, SMLabel, HMLabel} {
		st := pr.Stats[l]
		for _, s := range []*stats.Sample{
			&st.Time, &st.InvPerSec, &st.SnoopPerSec, &st.L2MissPerSec,
			&st.Inv, &st.Snoop, &st.L2Miss,
		} {
			word(uint64(s.N()))
			for _, v := range s.Values() {
				word(math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// perfGoldenLines runs every cell of testdata/perf_eval.golden — every
// kernel of both suites at class S, seeds 1 and 2, two repetitions per
// placement, on two workers — and renders one "suite seed kernel digest"
// line per kernel.
func perfGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, suite := range []string{"npb", "splash"} {
		for _, seed := range []int64{1, 2} {
			res, err := RunPerformance(Config{
				Suite:       suite,
				Class:       npb.ClassS,
				Repetitions: 2,
				Seed:        seed,
				Parallel:    2,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", suite, seed, err)
			}
			for _, pr := range res {
				lines = append(lines, fmt.Sprintf("%s %d %s %s", suite, seed, pr.Name, perfDigest(pr)))
			}
		}
	}
	return lines
}

// TestRunPerformanceGolden freezes the performance evaluation: the digest
// of every (suite, seed, kernel) cell must equal the committed one. The
// file was recorded from live evaluation runs and has no update path; a
// diff here means the engine, a workload or the evaluation loop changed
// what the paper's Figures 6-9 report.
func TestRunPerformanceGolden(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "perf_eval.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	got := perfGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d cells computed, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
