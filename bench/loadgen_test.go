package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"tlbmap/internal/serve"
)

// stallServer answers the wire protocol on conn with canned responses and,
// just before answering the stallAt-th batch, stops reading and answering
// for stall. Its placements are the identity of threads threads.
func stallServer(conn net.Conn, threads, stallAt int, stall time.Duration) {
	defer conn.Close()
	rd, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	ident := make([]string, threads)
	for i := range ident {
		ident[i] = fmt.Sprint(i)
	}
	batches := 0
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return
		}
		switch {
		case strings.HasPrefix(line, "HELLO"):
			w.WriteString("OK\n")
		case strings.HasPrefix(line, "E "):
			if batches++; batches == stallAt {
				time.Sleep(stall)
			}
			w.WriteString("OK 50\n")
		case line == "Q\n":
			fmt.Fprintf(w, "OK %s conf=1.000 remap=false degraded=false reason=test\n", strings.Join(ident, ","))
		case line == "BYE\n":
			w.WriteString("OK bye\n")
			w.Flush()
			return
		}
		if rd.Buffered() == 0 {
			w.Flush()
		}
	}
}

// TestOpenLoopChargesStallFromIntendedTime drives one connection at one
// batch per tick into a server that stalls for 50 ms before answering the
// 50th batch. net.Pipe has no buffer, so the stall blocks the generator's
// writes: every batch due during the stall must still be timed from its due
// tick, and the generator must report that it ran late.
func TestOpenLoopChargesStallFromIntendedTime(t *testing.T) {
	const (
		threads = 8
		stallAt = 50
		stall   = 50 * time.Millisecond
	)
	client, server := net.Pipe()
	go stallServer(server, threads, stallAt, stall)
	c, err := dialTenant(client, "t", threads, newPool(1, 0, threads, 50))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// 50 events per tick at batch 50: one batch per tick, a query every 10.
	res := openLoop([]*clientConn{c}, 50*1000, 200*time.Millisecond, 50, 10, nil, 1)
	if res.failed() != 0 || res.badPlacements != 0 {
		t.Fatalf("failures: %+v", res.counts())
	}
	if len(res.acks) != 200 || len(res.queries) != 20 {
		t.Fatalf("%d acks and %d queries, want 200 and 20", len(res.acks), len(res.queries))
	}
	// Batch stallAt is written no earlier than its tick, so the stall ends
	// no earlier than this; batches due before then cannot be answered
	// sooner, and their latency must count from their due tick.
	stallEnd := (time.Duration(stallAt-1)*tick + stall).Seconds()
	charged := 0
	for _, o := range res.acks {
		if o.at >= stallEnd-10e-3 || o.at < float64(stallAt-1)*tick.Seconds() {
			continue
		}
		charged++
		if o.at+o.dur < stallEnd-0.5e-3 {
			t.Errorf("batch due at %.1f ms answered after %.1f ms, before the stall ended at %.1f ms",
				o.at*1e3, o.dur*1e3, stallEnd*1e3)
		}
	}
	if charged < 30 {
		t.Errorf("only %d batches were due during the stall", charged)
	}
	worst := 0.0
	for _, l := range res.late {
		worst = max(worst, l)
	}
	if worst < 40e-3 {
		t.Errorf("generator lateness peaked at %.1f ms during a 50 ms stall", worst*1e3)
	}
	if res.backlogMax < 1 {
		t.Errorf("backlog max %d", res.backlogMax)
	}
}

// TestOpenLoopStopsAtPhaseEnd stalls the server past the end of the phase:
// the generator must stop sending when the phase ends, count what it never
// sent as failed, and still collect an answer for every request it sent.
func TestOpenLoopStopsAtPhaseEnd(t *testing.T) {
	const threads = 8
	client, server := net.Pipe()
	go stallServer(server, threads, 50, 300*time.Millisecond)
	c, err := dialTenant(client, "t", threads, newPool(1, 0, threads, 50))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	res := openLoop([]*clientConn{c}, 50*1000, 200*time.Millisecond, 50, 10, nil, 1)
	answered := len(res.acks) + len(res.queries)
	if res.unsent == 0 || res.unanswered != 0 || answered != res.sent || res.sent+res.unsent != 220 {
		t.Errorf("sent %d, answered %d, unanswered %d, unsent %d; want every sent request answered and 220 planned",
			res.sent, answered, res.unanswered, res.unsent)
	}
	if res.failed() != res.unsent || res.badPlacements != 0 {
		t.Errorf("failures: %+v", res.counts())
	}
}

// TestTenantMachineMatchesServer checks that the topology cost_ratio scores
// a tenant on has as many cores as the placements the server answers with,
// for the thread counts of both serving workloads.
func TestTenantMachineMatchesServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Drain(context.Background())
	for _, threads := range []int{serveIngest.threads, serveDurable.threads} {
		id := fmt.Sprintf("t%d", threads)
		if err := srv.CreateTenant(id, threads); err != nil {
			t.Fatal(err)
		}
		_, ev := newPool(1, 0, threads, 50).take()
		if err := srv.Ingest(id, ev); err != nil {
			t.Fatal(err)
		}
		res, err := srv.Query(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if cores := tenantMachine(threads).NumCores(); len(res.Placement) != cores || !isPermutation(res.Placement, cores) {
			t.Errorf("%d threads: server placement %v, tenantMachine has %d cores", threads, res.Placement, cores)
		}
	}
}

func TestCheckQueryAnswer(t *testing.T) {
	for _, c := range []struct {
		line           string
		ok, isDegraded bool
	}{
		{"OK 1,0,3,2 conf=0.9 remap=true degraded=false reason=x", true, false},
		{"OK 0,1,2,3 conf=0 remap=false degraded=true reason=late", true, true},
		{"OK 0,1,1,3 conf=0.9 remap=true degraded=false reason=x", false, false},
		{"OK 0,1,2 conf=0.9 remap=true degraded=false reason=x", false, false},
		{"OK", false, false},
	} {
		ok, degraded := checkQueryAnswer([]byte(c.line), 4)
		if ok != c.ok || degraded != c.isDegraded {
			t.Errorf("%q: ok %v degraded %v, want %v %v", c.line, ok, degraded, c.ok, c.isDegraded)
		}
	}
}

// TestAnswerSeparatesRefusals checks that a batch refused under overload
// counts as a failed request but not as a protocol error.
func TestAnswerSeparatesRefusals(t *testing.T) {
	var res phaseResult
	batch := pending{events: 50}
	res.answer([]byte("OK 50\n"), batch, 0, 8)
	res.answer([]byte("ERR "+serve.ErrOverloaded.Error()+"\n"), batch, 0, 8)
	res.answer([]byte("ERR bad event \"x\" (want thread:page)\n"), batch, 0, 8)
	if res.events != 50 || res.refused != 1 || res.errs != 1 || res.failed() != 2 {
		t.Errorf("events %d refused %d errs %d failed %d, want 50 1 1 2", res.events, res.refused, res.errs, res.failed())
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{1000, 99, 990}, // 10 samples beyond p99
		{999, 95, 950},  // p99 would leave 9
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{39, 50, 20},
		{20, 50, 10},
		{10, 50, 5}, // nothing leaves ten beyond: the median
	} {
		p, v, n := tail(seq(c.n))
		if p != c.p || v != c.want || n != c.n {
			t.Errorf("tail of 1..%d = p%g %v (n %d), want p%g %v", c.n, p, v, n, c.p, c.want)
		}
	}
}

// TestGeomeanIgnoresOrder checks that cost_ratio, a geometric mean over
// values jobs append as they finish, reads the same bits in any order.
func TestGeomeanIgnoresOrder(t *testing.T) {
	// Summed in this order and in reverse, the logarithms differ in the
	// last bit.
	xs := []float64{0.9441, 0.9007, 0.8931, 0.922, 0.8738, 0.8801, 0.9478, 0.9021}
	want := geomean(xs)
	for i := range xs {
		rotated := append(append([]float64(nil), xs[i:]...), xs[:i]...)
		slices.Reverse(rotated)
		if got := geomean(rotated); got != want {
			t.Errorf("rotation %d reversed: %v, want %v", i, got, want)
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	var obs []timed
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			d := float64(i)
			if w == 2 {
				d *= 10 // one stalled window
			}
			obs = append(obs, timed{at: float64(w) + float64(i)/1000, dur: d})
		}
	}
	per := windowPercentiles(obs, 99)
	if got := median(per); got != 99 || len(per) != 5 {
		t.Errorf("median of windowed p99 = %v over %d windows, want 99 over 5", got, len(per))
	}
}
