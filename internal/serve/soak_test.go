package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlbmap/internal/runner"
	"tlbmap/internal/serve/loadgen"
	"tlbmap/internal/vm"
)

// TestConcurrentIngestMatchesReplay is the determinism differential: N
// tenants are each fed by M concurrent streams while queries and snapshots
// interleave, then every tenant's applied-order log is replayed through a
// fresh single-threaded detector. The concurrent matrix must match the
// replayed one byte for byte — the applier serializes all mutation, so
// concurrency may reorder the stream but never corrupt the accumulation.
func TestConcurrentIngestMatchesReplay(t *testing.T) {
	const (
		tenants    = 4
		streams    = 6
		batches    = 40
		batchSize  = 25
		threadsPer = 8
	)
	cfg := Config{Shards: 4}
	s := New(cfg)
	// logs[ti] is tenant ti's applied-order event log, appended by its
	// applier under the tenant lock.
	logs := make([][]Event, tenants)
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("t%d", ti)
		if err := s.CreateTenant(id, threadsPer); err != nil {
			t.Fatal(err)
		}
		tn, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		log := &logs[ti]
		tn.mu.Lock()
		tn.applyHook = func(e Event) { *log = append(*log, e) }
		tn.mu.Unlock()
	}

	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("t%d", ti)
		for st := 0; st < streams; st++ {
			wg.Add(1)
			go func(id string, st int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(runner.SeedN(7, st, id)))
				batch := make([]Event, 0, batchSize)
				for b := 0; b < batches; b++ {
					batch = batch[:0]
					for k := 0; k < batchSize; k++ {
						th := rng.Intn(threadsPer)
						batch = append(batch, Event{
							Thread: int32(th),
							Page:   vm.Page(uint64(th)*64 + uint64(rng.Intn(96))),
						})
					}
					if err := s.Ingest(id, batch); err != nil {
						t.Errorf("Ingest(%s): %v", id, err)
						return
					}
				}
			}(id, st)
		}
		// Interleave queries and snapshots with the ingest streams.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Query(context.Background(), id); err != nil {
					t.Errorf("Query(%s): %v", id, err)
				}
				if _, err := s.Snapshot(id); err != nil {
					t.Errorf("Snapshot(%s): %v", id, err)
				}
			}
		}(id)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := uint64(streams * batches * batchSize)
	rcfg := cfg.withDefaults()
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("t%d", ti)
		live, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		snap := live.snapshot()
		if snap.Applied != want || snap.Ingested != want {
			t.Errorf("%s: applied=%d ingested=%d, want %d", id, snap.Applied, snap.Ingested, want)
		}
		log := logs[ti]
		if uint64(len(log)) != want {
			t.Fatalf("%s: applied log has %d events, want %d", id, len(log), want)
		}
		// Single-threaded replay of the applied order.
		replay, err := newTenant(id, threadsPer, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range log {
			replay.applyOne(e)
		}
		if !snap.Matrix.Equal(replay.matrix) {
			t.Errorf("%s: concurrent matrix differs from single-threaded replay", id)
		}
		if got, wantS := snap.Matrix.String(), replay.matrix.String(); got != wantS {
			t.Errorf("%s: matrix rendering differs from replay:\n got %s\nwant %s", id, got, wantS)
		}
		if err := live.view.Index.Validate(); err != nil {
			t.Errorf("%s: presence index invalid after soak: %v", id, err)
		}
	}
}

// TestLoadgenReconnectResume drives a sequenced fleet where every
// connection deliberately drops mid-conversation (half of them after
// writing a batch whose ack is then lost) and every third of the first
// 3*retries dial attempts fails, forcing the seeded backoff path. The run
// must still finish with every event applied exactly once:
// resume-from-acknowledged-sequence plus "OK dup" retransmit handling make
// the disconnects invisible to the counters.
//
// The injector refuses at most retries dials in total (loadgen's
// dialRetries, the budget of each sequenced connection), so no connection
// can use up its retry budget however the 64 connections' dials
// interleave: refusing every third dial for the whole run can hand one
// connection retries+1 failing slots in a row under the race detector.
func TestLoadgenReconnectResume(t *testing.T) {
	const (
		conns         = 64
		eventsPerConn = 400
		retries       = 3
	)
	s := New(Config{Shards: 8, QueueCap: 512})
	var wg sync.WaitGroup
	var dials, refused atomic.Uint64
	dial := func() (net.Conn, error) {
		if d := dials.Add(1); d%3 == 0 && d <= 3*retries {
			refused.Add(1)
			return nil, fmt.Errorf("synthetic dial failure")
		}
		client, server := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ServeConn(server)
		}()
		return client, nil
	}

	report, err := loadgen.Run(loadgen.Options{
		Dial:          dial,
		Conns:         conns,
		Tenants:       8,
		Threads:       8,
		EventsPerConn: eventsPerConn,
		Batch:         25,
		QueryEvery:    4,
		Seed:          99,
		Reconnect:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reconnect fleet: %s", report)
	// Every connection dials at least once, so all retries failing slots
	// were reached.
	if got := refused.Load(); got != retries {
		t.Errorf("injected %d dial failures, want %d", got, retries)
	}
	if report.HangUps != 0 {
		t.Errorf("%d connections failed to finish", report.HangUps)
	}
	if report.Errors != 0 {
		t.Errorf("%d ERR responses", report.Errors)
	}
	if want := uint64(conns * eventsPerConn); report.Events != want {
		t.Errorf("acknowledged %d events, want %d", report.Events, want)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := s.Stats()
	if want := uint64(conns * eventsPerConn); st.Applied != want {
		t.Errorf("server applied %d events, want exactly %d (no double-apply)", st.Applied, want)
	}
	if st.Dropped != 0 {
		t.Errorf("server dropped %d events", st.Dropped)
	}
	if st.Applied+st.Dropped != st.Ingested {
		t.Errorf("unclean books: ingested=%d applied=%d dropped=%d", st.Ingested, st.Applied, st.Dropped)
	}
}

// TestSoak1000Connections is the acceptance soak: the synthetic fleet
// drives ≥1000 concurrent connections (in-memory pipes through the same
// ServeConn path TCP uses) against one server, and the run must finish
// with zero hangups, zero ERR responses, and p99 query latency under the
// configured deadline.
func TestSoak1000Connections(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const deadline = 5 * time.Second
	s := New(Config{Shards: 32, QueueCap: 512, QueryDeadline: deadline})
	var wg sync.WaitGroup
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ServeConn(server)
		}()
		return client, nil
	}

	report, err := loadgen.Run(loadgen.Options{
		Dial:          dial,
		Conns:         1000,
		Tenants:       25,
		Threads:       8,
		EventsPerConn: 80,
		Batch:         20,
		QueryEvery:    2,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Logf("soak: %s", report)

	if report.HangUps != 0 {
		t.Errorf("%d connections hung up", report.HangUps)
	}
	if report.Errors != 0 {
		t.Errorf("%d ERR responses", report.Errors)
	}
	if want := uint64(1000 * 80); report.Events != want {
		t.Errorf("acknowledged %d events, want %d", report.Events, want)
	}
	if report.Queries == 0 {
		t.Error("no queries completed")
	}
	if report.QueryP99 > deadline {
		t.Errorf("p99 query latency %v exceeds deadline %v", report.QueryP99, deadline)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tenants != 25 {
		t.Errorf("server has %d tenants, want 25", st.Tenants)
	}
	if st.Applied+st.Dropped != st.Ingested {
		t.Errorf("unclean drain: ingested=%d applied=%d dropped=%d", st.Ingested, st.Applied, st.Dropped)
	}
	if st.Quarantines != 0 {
		t.Errorf("%d tenants quarantined during soak", st.Quarantines)
	}
	for _, id := range s.Tenants() {
		tn, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tn.mu.Lock()
		err = tn.view.Index.Validate()
		tn.mu.Unlock()
		if err != nil {
			t.Errorf("%s: presence index invalid after soak: %v", id, err)
		}
	}
}
