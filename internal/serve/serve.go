// Package serve is the mapping-as-a-service layer: a long-running daemon
// core that ingests TLB-sample streams from many concurrent clients,
// maintains sharded per-tenant detector state (per-thread TLBs behind a
// tlb.PresenceIndex feeding a comm.Matrix), and answers placement queries
// through the confidence-gated online mapper within a per-request
// deadline.
//
// It promotes the simulator's core packages behind a small stable serving
// API — Server.Ingest, Server.Query, Server.Snapshot — instead of the
// CLI-only entry points, and reuses the hardened runner semantics as the
// service execution layer: queries run inside runner.Attempt (deadline +
// panic isolation), ingestion flows through bounded per-tenant queues
// (backpressure), and a panicking tenant is quarantined with its stack
// without poisoning sibling shards. Drain stops ingestion, applies what is
// queued, and leaves query/snapshot state readable.
//
// Concurrency model: tenants are spread over striped-lock shards; each
// tenant owns one applier goroutine that drains its bounded queue, so all
// detector-state mutation is serialized per tenant and the resulting
// matrix is byte-identical to a single-threaded replay of the applied
// event order (the soak tests assert exactly this).
package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlbmap/internal/fault"
	"tlbmap/internal/runner"
	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// Service errors. The wire protocol maps each to a one-line ERR response;
// API callers match them with errors.Is.
var (
	// ErrTenantNotFound is returned for a tenant that was never created
	// or has been evicted (eviction mid-stream is this error, not a
	// panic).
	ErrTenantNotFound = errors.New("serve: tenant not found")
	// ErrTenantExists is returned by CreateTenant when the tenant already
	// exists with a different thread count.
	ErrTenantExists = errors.New("serve: tenant exists with different thread count")
	// ErrTenantQuarantined is returned for a tenant whose applier or
	// query path panicked; the panic stack is retained in the tenant's
	// stats and the tenant no longer serves until evicted.
	ErrTenantQuarantined = errors.New("serve: tenant quarantined after panic")
	// ErrOverloaded is returned when a tenant's bounded ingest queue
	// stays full past the enqueue wait — the backpressure signal.
	ErrOverloaded = errors.New("serve: tenant ingest queue full")
	// ErrDraining is returned once Drain has begun: ingestion and tenant
	// creation stop; queries and snapshots keep working.
	ErrDraining = errors.New("serve: server draining")
	// ErrBadEvent is returned for an event naming a thread outside the
	// tenant's range.
	ErrBadEvent = errors.New("serve: event thread out of range")
	// ErrDuplicateBatch is returned by IngestFrom for a client sequence
	// number at or below the source's last accepted one — the idempotent
	// outcome of a reconnecting client resending an already-acknowledged
	// (or already-applied-but-unacknowledged) batch. The batch was NOT
	// applied again; callers treat this as success.
	ErrDuplicateBatch = errors.New("serve: duplicate batch")
	// ErrSequenceGap is returned by IngestFrom when a source skips ahead:
	// accepting the batch would silently lose the gap, so the client must
	// resync (re-HELLO and resume from the acknowledged sequence).
	ErrSequenceGap = errors.New("serve: batch sequence gap")
)

// Event is one TLB-sample: the tenant's thread touched (and, if it was not
// already resident in that thread's TLB, faulted on) a virtual page. It is
// the unit the daemon ingests — the trap stream of the paper's SM
// mechanism (Figure 1a), sampled and shipped to the detector machine.
type Event struct {
	Thread int32
	Page   vm.Page
}

// Config tunes a Server. The zero value selects every default.
type Config struct {
	// Shards is the number of striped tenant-map locks (default 16).
	Shards int
	// QueueCap is the per-tenant bounded ingest queue capacity, in
	// batches (default 256). A slow applier fills it and ingestion
	// degrades to ErrOverloaded instead of growing memory.
	QueueCap int
	// QueryDeadline is the per-request mapping budget: a query that
	// exceeds it returns the last placement in force, flagged Degraded
	// (default 100ms).
	QueryDeadline time.Duration
	// Faults arms the detector-relevant fault scenarios on the ingest
	// path: SampleLoss drops events before they charge the matrix (the
	// refill still happens) and ShootdownStorm flushes random threads'
	// TLBs. Engine-side scenarios do not apply to the serving path and
	// are ignored. The zero plan injects nothing.
	Faults fault.Plan

	// Dir, when non-empty, makes every tenant durable: accepted batches
	// are written to a per-tenant write-ahead log before they are
	// acknowledged, periodic snapshots allow log compaction, and Open
	// recovers all tenant state from this directory on startup. Empty
	// (the default) keeps the server purely in-memory.
	Dir string
	// Sync is the WAL sync policy (default wal.SyncAlways: an
	// acknowledged batch is durable). Only meaningful with Dir set.
	Sync wal.SyncPolicy
	// SnapshotEvery is the snapshot cadence in applied events per tenant
	// (default 4096): after that many events a snapshot is written and
	// the WAL compacted. Only meaningful with Dir set.
	SnapshotEvery int
	// RecoveryWorkers bounds the parallel tenant-recovery pool Open runs
	// at startup (default: one worker per CPU). Recovery output is
	// identical at any worker count; the knob exists for tests and for
	// capping recovery I/O on shared disks.
	RecoveryWorkers int
}

const (
	// enqueueWait bounds how long Ingest blocks on a full queue before
	// returning ErrOverloaded.
	enqueueWait = 10 * time.Millisecond
	// maxThreads caps a tenant's thread count. Thread counts must be
	// powers of two, matching the mappers' contract.
	maxThreads = 1024
	// defaultWriteTimeout bounds one response write on a connection.
	defaultWriteTimeout = 5 * time.Second
)

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.QueryDeadline <= 0 {
		c.QueryDeadline = 100 * time.Millisecond
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	return c
}

// shard is one stripe of the tenant map.
type shard struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
}

// Stats is a point-in-time server-wide summary.
type Stats struct {
	Tenants     int
	Ingested    uint64 // events accepted into a queue
	Applied     uint64 // events folded into detector state
	Dropped     uint64 // accepted events discarded (evict/quarantine)
	Rejected    uint64 // events refused at Ingest (overload backpressure)
	LostSamples uint64 // events dropped by the SampleLoss injector
	Storms      uint64 // ShootdownStorm flushes performed
	Queries     uint64
	Degraded    uint64 // queries answered past the deadline with the last placement
	Overloads   uint64 // Ingest calls rejected with ErrOverloaded
	Quarantines uint64 // live tenants currently quarantined after a panic
	Syncs       uint64 // WAL fsyncs run by group commit (wal.SyncAlways)
}

// Server is the mapping service: sharded tenant state plus the counters
// the daemon reports. Create one with New, feed it through Ingest/Query/
// Snapshot (or the wire protocol via Serve/ServeConn), stop it with Drain.
type Server struct {
	cfg      Config
	shards   []*shard
	draining atomic.Bool
	wg       sync.WaitGroup // live tenant appliers
	// writeTimeout is defaultWriteTimeout unless a test shortens it.
	writeTimeout time.Duration

	queries   atomic.Uint64
	degraded  atomic.Uint64
	overloads atomic.Uint64
}

// New builds a Server from the config (zero value = all defaults). With
// Config.Dir set, tenants created on this server are durable, but
// pre-existing on-disk tenants are NOT loaded — use Open for that.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, shards: make([]*shard, cfg.Shards), writeTimeout: defaultWriteTimeout}
	for i := range s.shards {
		s.shards[i] = &shard{tenants: make(map[string]*tenant)}
	}
	return s
}

// Open builds a Server and, when Config.Dir is set, recovers every tenant
// found there: snapshot plus WAL tail, with torn or corrupted tails
// truncated at the first bad record rather than failing startup. This is
// the daemon's entry point; New is the in-memory one.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.cfg.Dir == "" {
		return s, nil
	}
	entries, err := os.ReadDir(filepath.Join(s.cfg.Dir, "tenants"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return s, nil
		}
		return nil, fmt.Errorf("serve: open %s: %w", s.cfg.Dir, err)
	}
	type tenantDir struct{ name, id string }
	var dirs []tenantDir
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(ent.Name())
		if err != nil {
			continue // not a tenant directory
		}
		dirs = append(dirs, tenantDir{name: ent.Name(), id: string(raw)})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].name < dirs[j].name })
	// Tenants recover independently (disjoint directories, disjoint shard
	// entries), so replay them on a bounded worker pool: O(tenants)
	// startup becomes O(tenants/cores). Results are identical at any
	// worker count — within a tenant, replay order is WAL order regardless
	// — and runner.Run reports the lowest-indexed error, matching what a
	// serial loop over the sorted listing would have hit first.
	err = runner.Run(runner.Pool{Workers: s.cfg.RecoveryWorkers}, len(dirs), func(i int) error {
		name, id := dirs[i].name, dirs[i].id
		meta, err := wal.ReadBlob(filepath.Join(s.cfg.Dir, "tenants", name, "meta"))
		if err != nil {
			return fmt.Errorf("serve: recover tenant %q: %w", id, err)
		}
		metaID, threads, err := decodeMeta(meta)
		if err != nil || metaID != id {
			return fmt.Errorf("serve: recover tenant %q: bad meta (id %q, err %v)", id, metaID, err)
		}
		if err := s.CreateTenant(id, threads); err != nil {
			return fmt.Errorf("serve: recover tenant %q: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// shardFor stripes a tenant ID over the shard array by FNV-32a. The hash
// is inlined (same constants as hash/fnv.New32a) so the per-request
// lookup neither heap-allocates a hasher nor copies the id to []byte.
func (s *Server) shardFor(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// lookup returns the live tenant or ErrTenantNotFound.
func (s *Server) lookup(id string) (*tenant, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	t := sh.tenants[id]
	sh.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	return t, nil
}

// CreateTenant registers a tenant with the given thread count (a power of
// two up to maxThreads, 1024) and starts its applier. Creating an existing
// tenant with the same thread count is a no-op, so reconnecting clients can
// HELLO idempotently.
func (s *Server) CreateTenant(id string, threads int) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if id == "" {
		return errors.New("serve: empty tenant id")
	}
	if threads <= 0 || threads > maxThreads || threads&(threads-1) != 0 {
		return fmt.Errorf("serve: tenant %q: thread count %d must be a power of two in [1, %d]",
			id, threads, maxThreads)
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing := sh.tenants[id]; existing != nil {
		if existing.threads == threads {
			return nil
		}
		return fmt.Errorf("%w: %q has %d threads, requested %d",
			ErrTenantExists, id, existing.threads, threads)
	}
	t, err := newTenant(id, threads, s.cfg)
	if err != nil {
		return err
	}
	sh.tenants[id] = t
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t.run()
	}()
	return nil
}

// EvictTenant removes a tenant and releases its resources: the applier
// exits (discarding whatever is still queued) before EvictTenant returns,
// so shard map size and goroutine count go back to baseline. In-flight
// Ingest calls on the evicted tenant fail with ErrTenantNotFound. On a
// durable server eviction is total: the tenant's directory — WAL,
// snapshot, meta — is deleted, so a later Open will not resurrect it.
func (s *Server) EvictTenant(id string) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	t := sh.tenants[id]
	delete(sh.tenants, id)
	sh.mu.Unlock()
	if t == nil {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	t.shutdown()
	<-t.done
	if t.wlog != nil {
		t.wlog.Close()
		if err := os.RemoveAll(t.dir); err != nil {
			return fmt.Errorf("serve: evict %q: %w", id, err)
		}
	}
	return nil
}

// Ingest enqueues a batch of events for a tenant. The batch is copied, so
// the caller may reuse the slice. Backpressure is bounded and explicit:
// when the tenant's queue stays full past enqueueWait (10 ms) the batch is
// rejected with ErrOverloaded and counted as dropped — a slow tenant can
// never grow its queue past its cap.
func (s *Server) Ingest(tenantID string, events []Event) error {
	return s.IngestFrom(tenantID, "", 0, events)
}

// IngestFrom is Ingest with an idempotence key: source names the client
// stream and seq is its batch sequence number, starting at 1 and
// incremented per accepted batch. A seq at or below the source's last
// accepted one returns ErrDuplicateBatch WITHOUT re-applying — the safe
// outcome when a client retries a batch whose ack was lost — and a seq
// that skips ahead returns ErrSequenceGap. On a durable server the batch
// is appended to the tenant's WAL before the call returns, and under
// wal.SyncAlways the call returns only once an fsync covers it, so an
// acknowledged batch survives a crash.
func (s *Server) IngestFrom(tenantID, source string, seq uint64, events []Event) error {
	t, wait, err := s.ingest(tenantID, source, seq, events)
	if wait != 0 {
		if derr := t.waitDurable(wait); derr != nil {
			return derr
		}
	}
	return err
}

// ingest is IngestFrom without the durability wait: it validates, dedups,
// enqueues and appends, and returns the tenant together with the WAL seq
// its ack depends on — 0 when the ack may be released at once. Under
// group commit that seq is the new batch's own, and for a duplicate it is
// the newest append: an idempotent retransmit ack is still an ack, and it
// must not outrun the fsync covering the batch it acknowledges. The
// caller waits for it with waitDurable before the ack reaches the client.
func (s *Server) ingest(tenantID, source string, seq uint64, events []Event) (*tenant, uint64, error) {
	if s.draining.Load() {
		return nil, 0, ErrDraining
	}
	if len(events) == 0 {
		return nil, 0, nil
	}
	t, err := s.lookup(tenantID)
	if err != nil {
		return nil, 0, err
	}
	if pe := t.quarantine.Load(); pe != nil {
		return nil, 0, fmt.Errorf("%w: %q: %v", ErrTenantQuarantined, tenantID, pe.Value)
	}
	for _, e := range events {
		if e.Thread < 0 || int(e.Thread) >= t.threads {
			return nil, 0, fmt.Errorf("%w: thread %d of tenant %q (threads 0..%d)",
				ErrBadEvent, e.Thread, tenantID, t.threads-1)
		}
	}
	b := batch{events: copyEvents(events), source: source, srcSeq: seq}
	if t.wlog == nil && source == "" {
		// In-memory anonymous path: no ordering obligations beyond the
		// queue itself, so skip the ingest lock entirely.
		if err := s.enqueue(t, b); err != nil {
			recycleEvents(b.events)
			return nil, 0, err
		}
		return t, 0, nil
	}

	// Durable/sourced path. ingestMu makes dedup-check → enqueue → WAL
	// append one atomic step, so WAL order == enqueue order == applied
	// order and the recovery replay reconstructs exactly what the applier
	// saw. The WAL append happens after the enqueue: a batch rejected for
	// overload must leave no trace in the log (recovery must not replay
	// what the client was told to resend), and the window where a batch
	// is applied before its record lands is closed by the snapshot codec
	// serializing the applied-side dedup map. The record bytes are
	// encoded BEFORE the enqueue, though: once queued, the applier may
	// finish with (and recycle) the event slab at any moment.
	t.ingestMu.Lock()
	if source != "" {
		last := t.sources[source]
		if seq <= last {
			var wait uint64
			if t.groupCommit {
				wait = t.lastAppend
			}
			t.ingestMu.Unlock()
			recycleEvents(b.events)
			return t, wait, fmt.Errorf("%w: %q seq %d already accepted (at %d)", ErrDuplicateBatch, source, seq, last)
		}
		if seq != last+1 {
			t.ingestMu.Unlock()
			recycleEvents(b.events)
			return nil, 0, fmt.Errorf("%w: %q seq %d after %d", ErrSequenceGap, source, seq, last)
		}
	}
	if t.wlog != nil {
		b.seq = t.wlog.NextSeq()
		t.walBuf = appendWALRecord(t.walBuf[:0], source, seq, b.events)
	}
	if err := s.enqueue(t, b); err != nil {
		t.ingestMu.Unlock()
		return nil, 0, err
	}
	if t.wlog != nil {
		got, werr := t.wlog.AppendBuffered(t.walBuf)
		if werr != nil || got != b.seq {
			if werr == nil {
				werr = fmt.Errorf("serve: wal seq skew: appended %d, reserved %d", got, b.seq)
			}
			// The batch is already queued but cannot be made durable:
			// continuing would acknowledge writes a restart forgets.
			// Fail stop for this tenant.
			t.quarantineErr(werr)
			t.ingestMu.Unlock()
			return nil, 0, fmt.Errorf("%w: %q: %v", ErrTenantQuarantined, tenantID, werr)
		}
		t.lastAppend = got
	}
	if source != "" {
		t.sources[source] = seq
	}
	t.ingestMu.Unlock()
	if t.groupCommit {
		return t, b.seq, nil
	}
	return t, 0, nil
}

// eventSlabs recycles batch buffers between the ingest path (which must
// copy the caller's slice) and the appliers (which are done with a batch
// once it is folded in). A buffered channel rather than a sync.Pool:
// Get/Put move only a slice header and never box it into an interface, so
// the steady-state ingest path stays allocation-free.
var eventSlabs = make(chan []Event, 4096)

// copyEvents copies the caller's batch into a recycled slab (or a fresh
// one when the pool is momentarily empty).
func copyEvents(events []Event) []Event {
	var s []Event
	select {
	case s = <-eventSlabs:
	default:
	}
	return append(s[:0], events...)
}

// recycleEvents returns a batch slab to the pool. Callers must be done
// reading it: the next copyEvents overwrites the backing array.
func recycleEvents(s []Event) {
	if cap(s) == 0 {
		return
	}
	select {
	case eventSlabs <- s[:0]:
	default:
	}
}

// enqueue is the bounded-queue admission step shared by both ingest
// paths: immediate send, then one enqueueWait-bounded retry, then
// ErrOverloaded.
func (s *Server) enqueue(t *tenant, b batch) error {
	n := uint64(len(b.events))
	select {
	case t.queue <- b:
		t.ingested.Add(n)
		return nil
	default:
	}
	timer := time.NewTimer(enqueueWait)
	defer timer.Stop()
	select {
	case t.queue <- b:
		t.ingested.Add(n)
		return nil
	case <-t.done:
		return fmt.Errorf("%w: %q evicted mid-stream", ErrTenantNotFound, t.id)
	case <-timer.C:
		t.rejected.Add(n)
		s.overloads.Add(1)
		return fmt.Errorf("%w: tenant %q (cap %d batches)", ErrOverloaded, t.id, s.cfg.QueueCap)
	}
}

// SourceSeq returns the last accepted batch sequence number for a source
// of a tenant (0 when the source is unknown). Reconnecting clients read
// it from the HELLO response and resume from the next one.
func (s *Server) SourceSeq(tenantID, source string) (uint64, error) {
	t, err := s.lookup(tenantID)
	if err != nil {
		return 0, err
	}
	t.ingestMu.Lock()
	seq := t.sources[source]
	waitSeq := t.lastAppend
	t.ingestMu.Unlock()
	if t.groupCommit {
		// The HELLO resume point implicitly acknowledges every batch at or
		// below it: do not let it outrun the fsync covering the newest
		// accepted batch, or a reconnecting client would skip past a batch
		// a crash can still lose.
		if err := t.waitDurable(waitSeq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Snapshot returns a deep copy of a tenant's communication matrix plus its
// stats. The copy is taken under the tenant lock, so it is a consistent
// point-in-time view even while ingestion continues.
func (s *Server) Snapshot(tenantID string) (*TenantSnapshot, error) {
	t, err := s.lookup(tenantID)
	if err != nil {
		return nil, err
	}
	return t.snapshot(), nil
}

// Stats aggregates the server-wide counters over every live tenant.
func (s *Server) Stats() Stats {
	st := Stats{
		Queries:   s.queries.Load(),
		Degraded:  s.degraded.Load(),
		Overloads: s.overloads.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, t := range sh.tenants {
			st.Tenants++
			if t.quarantine.Load() != nil {
				st.Quarantines++
			}
			st.Ingested += t.ingested.Load()
			st.Applied += t.applied.Load()
			st.Dropped += t.dropped.Load()
			st.Rejected += t.rejected.Load()
			st.LostSamples += t.lost.Load()
			st.Storms += t.storms.Load()
			st.Syncs += t.syncs.Load()
		}
		sh.mu.RUnlock()
	}
	return st
}

// Drain is the graceful-shutdown path (SIGTERM): it stops ingestion and
// tenant creation, lets every applier finish what is already queued, and
// waits for them to exit. Tenant state stays resident — queries and
// snapshots still work after a drain, which is what lets the daemon answer
// "what did you learn" before the process exits. On a durable server each
// drained tenant is finalized: a last snapshot covering everything
// applied, a WAL sync, and a clean close, so the next Open resumes with
// an empty replay. Returns ctx.Err() if the context expires first
// (appliers keep draining in the background, but tenants are then NOT
// finalized — the WAL still covers them).
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, t := range sh.tenants {
			t.drain.Store(true)
			t.shutdown()
		}
		sh.mu.RUnlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	var errs []error
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, t := range sh.tenants {
			if err := t.finalize(); err != nil {
				errs = append(errs, err)
			}
		}
		sh.mu.RUnlock()
	}
	return errors.Join(errs...)
}
