package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tlbmap/internal/vm"
)

// waitApplied spins until the tenant's applied counter reaches want (the
// queue is asynchronous) or the test deadline kills it.
func waitApplied(t *testing.T, s *Server, id string, want uint64) {
	t.Helper()
	for {
		snap, err := s.Snapshot(id)
		if err != nil {
			t.Fatalf("Snapshot(%s): %v", id, err)
		}
		if snap.Applied+snap.Dropped >= want {
			return
		}
	}
}

func TestIngestDetectsSharing(t *testing.T) {
	s := New(Config{})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	// Thread 0 then thread 1 touch page 7: the second toucher's sampled
	// miss sees the first as a holder — one unit of communication.
	// Thread 2 touches a private page: no communication.
	err := s.Ingest("a", []Event{
		{Thread: 0, Page: 7},
		{Thread: 1, Page: 7},
		{Thread: 2, Page: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", 3)
	snap, err := s.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Matrix.At(0, 1); got != 1 {
		t.Errorf("matrix[0][1] = %d, want 1", got)
	}
	if got := snap.Matrix.Total(); got != 1 {
		t.Errorf("matrix total = %d, want 1", got)
	}
	// A re-touch of a resident page is a TLB hit: no re-count.
	if err := s.Ingest("a", []Event{{Thread: 1, Page: 7}}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", 4)
	snap, _ = s.Snapshot("a")
	if got := snap.Matrix.Total(); got != 1 {
		t.Errorf("matrix total after resident re-touch = %d, want 1", got)
	}
}

func TestQueryReturnsValidPlacement(t *testing.T) {
	s := New(Config{})
	const threads = 8
	if err := s.CreateTenant("a", threads); err != nil {
		t.Fatal(err)
	}
	var events []Event
	for i := 0; i < threads; i++ {
		for p := 0; p < 32; p++ {
			events = append(events, Event{Thread: int32(i), Page: vm.Page(i*16 + p)})
		}
	}
	if err := s.Ingest("a", events); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", uint64(len(events)))
	res, err := s.Query(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != threads {
		t.Fatalf("placement has %d entries, want %d", len(res.Placement), threads)
	}
	seen := make([]bool, threads)
	for _, c := range res.Placement {
		if c < 0 || c >= threads || seen[c] {
			t.Fatalf("placement %v is not a permutation of 0..%d", res.Placement, threads-1)
		}
		seen[c] = true
	}
	if res.Degraded {
		t.Errorf("unexpected degraded query: %s", res.Reason)
	}
}

func TestCreateTenantValidation(t *testing.T) {
	s := New(Config{})
	for _, bad := range []int{0, -1, 3, 12, 2 * maxThreads} {
		if err := s.CreateTenant("x", bad); err == nil {
			t.Errorf("CreateTenant with %d threads succeeded, want error", bad)
		}
	}
	if err := s.CreateTenant("", 4); err == nil {
		t.Error("CreateTenant with empty id succeeded, want error")
	}
	if err := s.CreateTenant("a", 8); err != nil {
		t.Fatal(err)
	}
	// Idempotent with an equal thread count, an error with a different one.
	if err := s.CreateTenant("a", 8); err != nil {
		t.Errorf("idempotent re-create failed: %v", err)
	}
	if err := s.CreateTenant("a", 16); !errors.Is(err, ErrTenantExists) {
		t.Errorf("re-create with different threads: err = %v, want ErrTenantExists", err)
	}
}

func TestUnknownTenantErrors(t *testing.T) {
	s := New(Config{})
	if err := s.Ingest("ghost", []Event{{Thread: 0, Page: 1}}); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Ingest: err = %v, want ErrTenantNotFound", err)
	}
	if _, err := s.Query(context.Background(), "ghost"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Query: err = %v, want ErrTenantNotFound", err)
	}
	if _, err := s.Snapshot("ghost"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Snapshot: err = %v, want ErrTenantNotFound", err)
	}
	if err := s.EvictTenant("ghost"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Evict: err = %v, want ErrTenantNotFound", err)
	}
}

func TestBadEventRejected(t *testing.T) {
	s := New(Config{})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{{Thread: 4, Page: 1}, {Thread: -1, Page: 1}} {
		if err := s.Ingest("a", []Event{e}); !errors.Is(err, ErrBadEvent) {
			t.Errorf("Ingest(thread %d): err = %v, want ErrBadEvent", e.Thread, err)
		}
	}
}

func TestDrainStopsIngestKeepsQueries(t *testing.T) {
	s := New(Config{})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("a", []Event{{Thread: 0, Page: 1}, {Thread: 1, Page: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if err := s.Ingest("a", []Event{{Thread: 0, Page: 2}}); !errors.Is(err, ErrDraining) {
		t.Errorf("Ingest after drain: err = %v, want ErrDraining", err)
	}
	if err := s.CreateTenant("b", 4); !errors.Is(err, ErrDraining) {
		t.Errorf("CreateTenant after drain: err = %v, want ErrDraining", err)
	}
	snap, err := s.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Applied != snap.Ingested || snap.Applied != 2 {
		t.Errorf("after drain: applied=%d ingested=%d, want both 2", snap.Applied, snap.Ingested)
	}
	if snap.Matrix.Total() != 1 {
		t.Errorf("queued events were not applied before drain: total=%d", snap.Matrix.Total())
	}
	if _, err := s.Query(context.Background(), "a"); err != nil {
		t.Errorf("Query after drain failed: %v", err)
	}
	// Double drain is a no-op.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// Checkpoint forces a durability snapshot of one tenant right now,
// compacting its WAL. A no-op (nil) on a non-durable server.
func (s *Server) Checkpoint(tenantID string) error {
	t, err := s.lookup(tenantID)
	if err != nil {
		return err
	}
	if pe := t.quarantine.Load(); pe != nil {
		return fmt.Errorf("%w: %q: %v", ErrTenantQuarantined, tenantID, pe.Value)
	}
	return t.checkpoint()
}

// Tenants returns the live tenant IDs in shard order (unsorted).
func (s *Server) Tenants() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.tenants {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
