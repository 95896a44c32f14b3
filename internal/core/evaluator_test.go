package core

import (
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// TestEvaluatorSimulatesEachPairOnce counts workload instantiations — one
// per simulated run — through a single Evaluator: a repeated (placement,
// Options) pair must not simulate again, and every answer must equal a
// direct EvaluateMetrics call.
func TestEvaluatorSimulatesEachPairOnce(t *testing.T) {
	b, err := npb.Get("CG")
	if err != nil {
		t.Fatal(err)
	}
	inner := FromNPB(b, npb.Params{Class: npb.ClassS})
	runs := 0
	counted := func(as *vm.AddressSpace) []trace.Program {
		runs++
		return inner(as)
	}
	ev := NewEvaluator(counted)
	opt := Options{JitterSeed: 5}
	placeA := []int{1, 0, 3, 2, 5, 4, 7, 6}
	placeB := []int{0, 4, 1, 5, 2, 6, 3, 7}

	eval := func(place []int, o Options, wantRuns int) RunMetrics {
		t.Helper()
		got, err := ev.EvaluateMetrics(place, o)
		if err != nil {
			t.Fatalf("placement %v: %v", place, err)
		}
		if runs != wantRuns {
			t.Fatalf("placement %v, jitter %d: %d simulations, want %d", place, o.JitterSeed, runs, wantRuns)
		}
		return got
	}
	direct := func(place []int, o Options) RunMetrics {
		t.Helper()
		m, err := EvaluateMetrics(inner, place, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	a := eval(placeA, opt, 1)
	if again := eval(placeA, opt, 1); again != a {
		t.Fatalf("repeat = %+v, first run %+v", again, a)
	}
	bm := eval(placeB, opt, 2)
	otherJitter := opt
	otherJitter.JitterSeed = 6
	aj := eval(placeA, otherJitter, 3)
	if a == aj {
		t.Error("another JitterSeed reproduced the first run exactly; the key would not be tested")
	}
	for _, c := range []struct {
		place []int
		opt   Options
		got   RunMetrics
	}{{placeA, opt, a}, {placeB, opt, bm}, {placeA, otherJitter, aj}} {
		if want := direct(c.place, c.opt); c.got != want {
			t.Errorf("placement %v, jitter %d: %+v, direct EvaluateMetrics %+v", c.place, c.opt.JitterSeed, c.got, want)
		}
	}

	// A failed run is returned and not remembered.
	invalid := []int{0, 0, 1, 2, 3, 4, 5, 6}
	for want := 4; want <= 5; want++ {
		if _, err := ev.EvaluateMetrics(invalid, opt); err == nil {
			t.Fatal("duplicate-core placement evaluated without error")
		}
		if runs != want {
			t.Fatalf("invalid placement: %d simulations, want %d", runs, want)
		}
	}

	// The Evaluator keeps its own copy of a placement: rewriting the
	// caller's slice makes a new pair, and the old one is still found.
	p := append([]int(nil), placeA...)
	eval(p, opt, 5)
	p[0], p[2] = p[2], p[0]
	if got, want := eval(p, opt, 6), direct(p, opt); got != want {
		t.Errorf("rewritten placement %v: %+v, direct EvaluateMetrics %+v", p, got, want)
	}
	if got := eval(placeA, opt, 6); got != a {
		t.Errorf("placement %v after the rewrite: %+v, first run %+v", placeA, got, a)
	}
}
