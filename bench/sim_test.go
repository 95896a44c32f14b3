package main

import (
	"slices"
	"testing"

	"tlbmap/internal/harness"
	"tlbmap/internal/npb"
	"tlbmap/internal/stats"
)

// TestReproSuiteMatchesRunPerformance checks that the traced repro-npb job
// loop, built from the public per-layer calls wrapped in spans, is the
// program harness.RunPerformance runs: same placements and bit-identical
// simulated results. The per-layer numbers of a traced run therefore
// describe the same work the untraced run times.
func TestReproSuiteMatchesRunPerformance(t *testing.T) {
	const seed, reps = 7, 2
	got, err := reproSuite(reproScale{npb.ClassS, reps}, 2, seed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunPerformance(harness.Config{Class: npb.ClassS, Repetitions: reps, Seed: seed, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.perf) != len(want) {
		t.Fatalf("suite evaluated %d benchmarks, harness %d", len(got.perf), len(want))
	}
	for i, pr := range want {
		g := got.perf[i]
		if g.Name != pr.Name || !slices.Equal(g.PlacementSM, pr.PlacementSM) || !slices.Equal(g.PlacementHM, pr.PlacementHM) {
			t.Errorf("%s: placements SM %v HM %v, harness %s SM %v HM %v",
				g.Name, g.PlacementSM, g.PlacementHM, pr.Name, pr.PlacementSM, pr.PlacementHM)
		}
		for _, label := range perfLabels {
			gs, ws := g.Stats[label], pr.Stats[label]
			for _, c := range []struct {
				what      string
				got, want *stats.Sample
			}{{"time", &gs.Time, &ws.Time}, {"invalidations", &gs.Inv, &ws.Inv}, {"snoops", &gs.Snoop, &ws.Snoop}, {"L2 misses", &gs.L2Miss, &ws.L2Miss}} {
				if !slices.Equal(c.got.Values(), c.want.Values()) {
					t.Errorf("%s %s %s: suite %v, harness %v", pr.Name, label, c.what, c.got.Values(), c.want.Values())
				}
			}
		}
	}
	if d := perfDigest(want); got.digest != d {
		t.Errorf("suite digest %016x, harness %016x", got.digest, d)
	}
}

// TestTracedSuiteSpansNest checks what the reconciliation rests on: every
// span of a traced suite lies inside its job span, so layer self times sum
// to the job time.
func TestTracedSuiteSpansNest(t *testing.T) {
	tr := newTracer()
	if _, err := manycoreSuite(manycoreScale{npb.ClassS, 32}, 2, 3, tr); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			if s.Name != "runner.job" {
				t.Errorf("root span %q is not a job", s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %q [%d,%d] is not inside its parent %+v", s.Name, s.Start, s.End, p)
		}
	}
	self := tr.selfTimes()
	var sum float64
	for _, lt := range self {
		sum += lt.SelfS
	}
	if jobs := self["runner.job"].TotalS; sum < jobs*0.999 || sum > jobs*1.001 {
		t.Errorf("self times sum to %v s, job spans to %v s", sum, jobs)
	}
	if self["comm.detect_sm"].Count != len(manycoreApps) || self["comm.detect_hm"].Count != len(manycoreApps) {
		t.Errorf("detect spans: %+v", self)
	}
}
