package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
)

// slowMapper stalls every Map call — the pathological algorithm the
// deadline machinery must contain.
type slowMapper struct{ delay time.Duration }

func (s slowMapper) Name() string { return "slow" }

func (s slowMapper) Map(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	time.Sleep(s.delay)
	identity := make([]int, machine.NumCores())
	for i := range identity {
		identity[i] = i
	}
	return identity, nil
}

// sharingEvents produces a batch where adjacent threads share pages, so the
// epoch matrix is non-idle and the mapper actually runs.
func sharingEvents(threads, perThread int) []Event {
	var out []Event
	for t := 0; t < threads; t++ {
		for p := 0; p < perThread; p++ {
			out = append(out, Event{Thread: int32(t), Page: vm.Page(t*perThread/2 + p)})
		}
	}
	return out
}

// TestQueryDeadlineDegrades installs a mapper slower than the query budget:
// the query must come back within roughly the budget (not the mapper's
// runtime), flagged Degraded, carrying the identity placement that was last
// in force.
func TestQueryDeadlineDegrades(t *testing.T) {
	const budget = 30 * time.Millisecond
	s := New(Config{QueryDeadline: budget, Mapper: slowMapper{delay: 400 * time.Millisecond}})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	ev := sharingEvents(4, 16)
	if err := s.Ingest("a", ev); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", uint64(len(ev)))

	start := time.Now()
	res, err := s.Query(context.Background(), "a")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("query with %v mapper under %v budget was not degraded: %+v", 400*time.Millisecond, budget, res)
	}
	// The response must beat the mapper, with generous scheduler slack.
	if elapsed >= 400*time.Millisecond {
		t.Errorf("degraded query took %v, should return near the %v budget", elapsed, budget)
	}
	for i, c := range res.Placement {
		if c != i {
			t.Errorf("degraded placement[%d] = %d, want identity fallback", i, c)
		}
	}
	if res.Reason == "" {
		t.Error("degraded response carries no reason")
	}
	if got := s.Stats().Degraded; got != 1 {
		t.Errorf("Stats.Degraded = %d, want 1", got)
	}
}

// TestQueryCallerCancellation cancels the caller's context mid-mapping:
// the query returns the context error, not a degraded payload — the caller
// is gone, there is nobody to degrade for.
func TestQueryCallerCancellation(t *testing.T) {
	s := New(Config{QueryDeadline: time.Second, Mapper: slowMapper{delay: 400 * time.Millisecond}})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	ev := sharingEvents(4, 16)
	if err := s.Ingest("a", ev); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", uint64(len(ev)))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Query(ctx, "a")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query with expired caller ctx: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBackpressureBoundedQueue wedges a tenant's applier and keeps
// ingesting: once the bounded queue fills, Ingest must reject with
// ErrOverloaded within about EnqueueWait — and the queue must never grow
// past its cap, no matter how much the client pushes.
func TestBackpressureBoundedQueue(t *testing.T) {
	const (
		queueCap = 2
		wait     = 20 * time.Millisecond
	)
	s := New(Config{QueueCap: queueCap, EnqueueWait: wait})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	tn, err := s.lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	unblock := make(chan struct{})
	tn.mu.Lock()
	tn.applyHook = func(Event) { <-unblock }
	tn.mu.Unlock()

	// One batch wedges in the applier. Wait until it has been dequeued (the
	// hook blocks on the first event), then fill the queue to its cap so
	// every further batch must bounce.
	batch := []Event{{Thread: 0, Page: 1}, {Thread: 1, Page: 2}}
	if err := s.Ingest("a", batch); err != nil {
		t.Fatal(err)
	}
	for len(tn.queue) != 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queueCap; i++ {
		if err := s.Ingest("a", batch); err != nil {
			t.Fatalf("Ingest %d into non-full queue: %v", i, err)
		}
	}
	sent := 1 + queueCap
	// Keep pushing: every further batch must bounce quickly.
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := s.Ingest("a", batch)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("Ingest into full queue: err = %v, want ErrOverloaded", err)
		}
		if elapsed > 20*wait {
			t.Errorf("overload rejection took %v, want about %v", elapsed, wait)
		}
		if qlen := len(tn.queue); qlen > queueCap {
			t.Fatalf("queue grew to %d batches, cap is %d", qlen, queueCap)
		}
	}
	// The applier is wedged holding the tenant lock, so read the counter
	// atomically rather than through Snapshot (which takes the lock).
	if got := tn.rejected.Load(); got < uint64(len(batch)) {
		t.Errorf("rejected counter = %d, want at least one batch (%d events)", got, len(batch))
	}
	if s.Stats().Overloads < 1 {
		t.Error("Stats.Overloads = 0 after rejections")
	}

	// Release the applier: everything accepted must still be applied.
	close(unblock)
	waitApplied(t, s, "a", uint64(sent*len(batch)))
	snap, _ := s.Snapshot("a")
	if snap.Applied != uint64(sent*len(batch)) {
		t.Errorf("applied = %d after release, want %d", snap.Applied, sent*len(batch))
	}
}

// TestBlockedReaderHangsUp connects a client that pipelines requests but
// never reads a single response: the first flush that cannot complete
// trips the write deadline, the server hangs the connection up, and other
// connections keep being served.
func TestBlockedReaderHangsUp(t *testing.T) {
	s := New(Config{WriteTimeout: 50 * time.Millisecond})
	client, server := net.Pipe()
	defer client.Close()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		s.ServeConn(server)
	}()

	// Pipeline requests without ever reading. Writes error out once the
	// server hangs up — that is the success signal, not a failure.
	go func() {
		w := bufio.NewWriter(client)
		if _, err := w.WriteString("HELLO hog 4\n"); err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := fmt.Fprintf(w, "E %d:%d\n", i%4, i); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()

	select {
	case <-connDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not hang up on a blocked reader")
	}

	// A well-behaved connection still gets served.
	c2, srv2 := net.Pipe()
	defer c2.Close()
	go s.ServeConn(srv2)
	rd := bufio.NewReader(c2)
	if _, err := fmt.Fprintf(c2, "HELLO polite 4\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "OK") {
		t.Fatalf("HELLO after hangup: %q", resp)
	}
}
