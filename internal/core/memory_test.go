package core

import (
	"runtime"
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/topology"
)

// TestManycoreDetectionAllocation bounds the host memory of one detection
// at manycore scale: class-W UA under HM on Manycore(256), the largest job
// of the manycore-256 benchmark, must allocate under 60 MB in total. The
// simulator's own bookkeeping dominates at this scale — 256 L1s and 64 L2s
// each index their resident lines and store their ways — so a per-cache
// table sized by the highest line number (674 MB for this job) fails the
// bound, and so does way storage grown by append (88 MB).
func TestManycoreDetectionAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("class W manycore detection skipped in short mode")
	}
	if raceEnabled {
		t.Skip("256-thread class-W detection is past the race stage's timeout")
	}
	b, err := npb.Get("UA")
	if err != nil {
		t.Fatal(err)
	}
	w := FromNPB(b, npb.Params{Threads: 256, Class: npb.ClassW, Seed: 1})
	opt := Options{Machine: topology.Manycore(256)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Detect(w, HM, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB", float64(got)/1e6)
	if got >= 60e6 {
		t.Fatalf("class-W UA/HM detection on Manycore(256) allocated %.1f MB, want under 60 MB", float64(got)/1e6)
	}
}

// TestHarpertownEvaluationAllocation bounds the host memory of one
// performance run of the paper's evaluation: class-W UA on Harpertown at
// the identity placement, with jitter, must allocate under 25 MB in
// total. Its four 6 MiB L2s fill most of their sets, so way storage grown
// by append, which copies every way filled so far each time it regrows
// (45 MB for this run), fails the bound.
func TestHarpertownEvaluationAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("class W evaluation skipped in short mode")
	}
	if raceEnabled {
		t.Skip("class-W evaluation is past the race stage's timeout")
	}
	b, err := npb.Get("UA")
	if err != nil {
		t.Fatal(err)
	}
	w := FromNPB(b, npb.Params{Threads: 8, Class: npb.ClassW, Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := EvaluateMetrics(w, nil, Options{JitterSeed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB", float64(got)/1e6)
	if got >= 25e6 {
		t.Fatalf("class-W UA evaluation on Harpertown allocated %.1f MB, want under 25 MB", float64(got)/1e6)
	}
}
