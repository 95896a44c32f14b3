package metrics

import (
	"runtime"
	"strings"
	"testing"
)

func TestEventString(t *testing.T) {
	cases := map[Event]string{
		Invalidations:     "invalidations",
		SnoopTransactions: "snoop_transactions",
		L2Misses:          "l2_misses",
		TLBMisses:         "tlb_misses",
		DetectionCycles:   "detection_cycles",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("Event(%d).String() = %q, want %q", int(e), got, want)
		}
	}
	if got := Event(-1).String(); !strings.Contains(got, "event") {
		t.Errorf("invalid event string = %q", got)
	}
	if got := Event(NumEvents).String(); !strings.Contains(got, "event") {
		t.Errorf("out-of-range event string = %q", got)
	}
}

func TestCountersAddIncGet(t *testing.T) {
	var c Counters
	if c.Get(L2Misses) != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc(L2Misses)
	c.Add(L2Misses, 4)
	if got := c.Get(L2Misses); got != 5 {
		t.Errorf("Get = %d, want 5", got)
	}
	if c.Get(L2Hits) != 0 {
		t.Error("unrelated counter affected")
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.Add(Invalidations, 3)
	b.Add(Invalidations, 4)
	b.Add(SnoopTransactions, 7)
	a.Merge(&b)
	if got := a.Get(Invalidations); got != 7 {
		t.Errorf("merged invalidations = %d, want 7", got)
	}
	if got := a.Get(SnoopTransactions); got != 7 {
		t.Errorf("merged snoops = %d, want 7", got)
	}
	// b untouched.
	if b.Get(Invalidations) != 4 {
		t.Error("merge modified source")
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	var c Counters
	c.Add(TLBMisses, 2)
	snap := c.Snapshot()
	c.Add(TLBMisses, 3)
	if snap.Get(TLBMisses) != 2 {
		t.Error("snapshot aliases the original")
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	c.Add(L2Misses, 9)
	s := c.String()
	if !strings.Contains(s, "l2_misses=9") {
		t.Errorf("String() = %q", s)
	}
	var empty Counters
	if empty.String() != "" {
		t.Errorf("empty String() = %q", empty.String())
	}
}

func BenchmarkCountersInc(b *testing.B) {
	var c Counters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(L1Hits)
	}
	runtime.KeepAlive(&c)
}
