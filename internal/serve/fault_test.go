package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
)

// waitQuarantined polls until the tenant's quarantine flag is set.
func waitQuarantined(t *testing.T, s *Server, id string) *TenantSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := s.Snapshot(id)
		if err != nil {
			t.Fatalf("Snapshot(%s): %v", id, err)
		}
		if snap.Quarantined {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never quarantined", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestApplierPanicQuarantinesTenant detonates a panic inside one tenant's
// applier: that tenant is quarantined with its stack retained and refuses
// further traffic, while a sibling tenant on the same shard keeps working.
func TestApplierPanicQuarantinesTenant(t *testing.T) {
	s := New(Config{Shards: 1}) // one shard: the sibling shares it by construction
	for _, id := range []string{"bad", "good"} {
		if err := s.CreateTenant(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	tn, err := s.lookup("bad")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	tn.applyHook = func(e Event) {
		if e.Page == 666 {
			panic("poisoned sample")
		}
	}
	tn.mu.Unlock()

	if err := s.Ingest("bad", []Event{{Thread: 0, Page: 1}, {Thread: 0, Page: 666}, {Thread: 1, Page: 2}}); err != nil {
		t.Fatal(err)
	}
	snap := waitQuarantined(t, s, "bad")
	if snap.PanicValue != "poisoned sample" {
		t.Errorf("PanicValue = %v, want the panic payload", snap.PanicValue)
	}
	if len(snap.PanicStack) == 0 {
		t.Error("PanicStack is empty, want the retained stack")
	}
	// One event applied before the poison pill, the rest of the batch dropped.
	if snap.Applied != 1 || snap.Dropped != 2 {
		t.Errorf("applied=%d dropped=%d, want 1 and 2", snap.Applied, snap.Dropped)
	}

	if err := s.Ingest("bad", []Event{{Thread: 0, Page: 3}}); !errors.Is(err, ErrTenantQuarantined) {
		t.Errorf("Ingest into quarantined tenant: err = %v, want ErrTenantQuarantined", err)
	}
	if _, err := s.Query(context.Background(), "bad"); !errors.Is(err, ErrTenantQuarantined) {
		t.Errorf("Query of quarantined tenant: err = %v, want ErrTenantQuarantined", err)
	}
	if got := s.Stats().Quarantines; got != 1 {
		t.Errorf("Stats.Quarantines = %d, want 1", got)
	}

	// The sibling on the same shard is untouched.
	if err := s.Ingest("good", []Event{{Thread: 0, Page: 7}, {Thread: 1, Page: 7}}); err != nil {
		t.Fatalf("sibling Ingest after quarantine: %v", err)
	}
	waitApplied(t, s, "good", 2)
	gs, err := s.Snapshot("good")
	if err != nil {
		t.Fatal(err)
	}
	if gs.Quarantined {
		t.Error("sibling tenant was poisoned by the quarantine")
	}
	if gs.Matrix.Total() != 1 {
		t.Errorf("sibling matrix total = %d, want 1", gs.Matrix.Total())
	}
	if _, err := s.Query(context.Background(), "good"); err != nil {
		t.Errorf("sibling Query after quarantine: %v", err)
	}

	// Eviction clears the quarantine; re-creation starts healthy.
	if err := s.EvictTenant("bad"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("bad", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("bad", []Event{{Thread: 0, Page: 666}}); err != nil {
		t.Fatalf("re-created tenant rejects ingest: %v", err)
	}
	waitApplied(t, s, "bad", 1)
	if snap, _ := s.Snapshot("bad"); snap.Quarantined {
		t.Error("re-created tenant inherited the quarantine")
	}
}

// panicMapper detonates inside the query path's mapping step.
type panicMapper struct{}

func (panicMapper) Name() string { return "panic" }
func (panicMapper) Map(*comm.Matrix, *topology.Machine) ([]int, error) {
	panic("mapper detonated")
}

// TestQueryPanicQuarantinesTenant routes the panic through the hardened
// runner on the query path: the caller gets ErrTenantQuarantined (not a
// crash) and the tenant is poisoned exactly as an applier panic would.
func TestQueryPanicQuarantinesTenant(t *testing.T) {
	s := New(Config{})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	setMapper(t, s, "a", panicMapper{})
	ev := sharingEvents(4, 16)
	if err := s.Ingest("a", ev); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", uint64(len(ev)))
	if _, err := s.Query(context.Background(), "a"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("Query with panicking mapper: err = %v, want ErrTenantQuarantined", err)
	}
	snap, err := s.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Quarantined || len(snap.PanicStack) == 0 {
		t.Errorf("quarantined=%t stack=%d bytes, want quarantined with stack", snap.Quarantined, len(snap.PanicStack))
	}
}

// TestSampleLossOnIngest arms the SampleLoss injector at full intensity:
// every trap is lost, so the matrix never accumulates — but the refills
// still happen, so the TLBs (and the presence index) fill as usual.
func TestSampleLossOnIngest(t *testing.T) {
	plan, err := fault.ParsePlan("sampleloss:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Faults: plan})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	ev := sharingEvents(4, 16)
	if err := s.Ingest("a", ev); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, "a", uint64(len(ev)))
	snap, err := s.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Matrix.Total() != 0 {
		t.Errorf("matrix total = %d with all samples lost, want 0", snap.Matrix.Total())
	}
	if snap.LostSamples == 0 {
		t.Error("LostSamples = 0 with sampleloss at full intensity")
	}
	tn, err := s.lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	pages := tn.view.Index.PageCount()
	tn.mu.Unlock()
	if pages == 0 {
		t.Error("presence index is empty: lost traps must still refill the TLB")
	}
}

// TestShootdownStormOnIngest arms the ShootdownStorm injector: storms fire
// on the ingest path, flushing random TLBs — and the presence index stays
// consistent through every flush.
func TestShootdownStormOnIngest(t *testing.T) {
	plan, err := fault.ParsePlan("shootdown:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Faults: plan})
	if err := s.CreateTenant("a", 4); err != nil {
		t.Fatal(err)
	}
	// Enough events that storms fire at ~1 per 100 samples.
	var total uint64
	for round := 0; round < 20; round++ {
		ev := sharingEvents(4, 64)
		for i := range ev {
			ev[i].Page += vm.Page(round * 1000)
		}
		if err := s.Ingest("a", ev); err != nil {
			t.Fatal(err)
		}
		total += uint64(len(ev))
	}
	waitApplied(t, s, "a", total)
	snap, err := s.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Storms == 0 {
		t.Errorf("no storms fired over %d events at full intensity", total)
	}
	tn, err := s.lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	verr := tn.view.Index.Validate()
	tn.mu.Unlock()
	if verr != nil {
		t.Errorf("presence index inconsistent after storms: %v", verr)
	}
}

// TestFaultInjectionDeterministic feeds the same stream through two servers
// armed with the same plan: the injected faults land on the same events, so
// the matrices are identical — reproducibility survives the serving path.
func TestFaultInjectionDeterministic(t *testing.T) {
	plan, err := fault.ParsePlan("sampleloss:0.3,shootdown:0.5", 99)
	if err != nil {
		t.Fatal(err)
	}
	ev := sharingEvents(8, 64)
	snaps := make([]*TenantSnapshot, 2)
	for i := range snaps {
		s := New(Config{Faults: plan})
		if err := s.CreateTenant("twin", 8); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest("twin", ev); err != nil {
			t.Fatal(err)
		}
		waitApplied(t, s, "twin", uint64(len(ev)))
		snaps[i], err = s.Snapshot("twin")
		if err != nil {
			t.Fatal(err)
		}
	}
	if !snaps[0].Matrix.Equal(snaps[1].Matrix) {
		t.Error("same plan + same stream produced different matrices")
	}
	if snaps[0].LostSamples != snaps[1].LostSamples || snaps[0].Storms != snaps[1].Storms {
		t.Errorf("fault counts diverged: lost %d vs %d, storms %d vs %d",
			snaps[0].LostSamples, snaps[1].LostSamples, snaps[0].Storms, snaps[1].Storms)
	}
}
