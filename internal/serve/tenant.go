package serve

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/mapping"
	"tlbmap/internal/runner"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// stormPerEvent is the per-event storm probability at ShootdownStorm
// intensity 1 on the ingest path. Serving streams are already sampled, so
// the rate is denser than the engine's per-trace-event rate: at full
// intensity roughly one storm per 100 ingested samples.
const stormPerEvent = 1e-2

// batch is the unit the applier consumes: the events plus the identity
// the durability layer needs to make recovery exact. seq is the WAL
// sequence number reserved for the batch (0 on a non-durable server);
// source/srcSeq carry the client's idempotence key so the applier can
// maintain the applied-side dedup map that snapshots serialize.
type batch struct {
	events []Event
	seq    uint64
	source string
	srcSeq uint64
}

// tenant is one client application's detector state: per-thread TLBs
// seen through a presence index (thread i on slot i) accumulating into a
// communication matrix, plus
// the confidence-gated online mapper answering placement queries. All
// mutation is serialized by the applier goroutine (ingest) and mu
// (queries/snapshots interleaving with batches).
type tenant struct {
	id      string
	threads int

	queue chan batch
	stop  chan struct{} // closed once by shutdown(); applier exits
	done  chan struct{} // closed by the applier on exit
	drain atomic.Bool   // true: on stop, apply what is queued before exiting
	once  sync.Once     // guards close(stop): evict and drain may race

	// quarantine holds the panic that poisoned this tenant, nil while
	// healthy. Set by the applier or the query path; never cleared — a
	// quarantined tenant serves nothing until evicted.
	quarantine atomic.Pointer[runner.PanicError]

	// Durability (all nil/zero on a non-durable server). ingestMu
	// serializes the durable ingest path so WAL order == enqueue order ==
	// applied order; sources is the ingest-side dedup map (last accepted
	// client seq per source), consulted and updated under ingestMu.
	dir       string
	wlog      *wal.Log
	snapEvery uint64
	ingestMu  sync.Mutex
	sources   map[string]uint64
	snapMu    sync.Mutex    // serializes checkpoint encode+write+compact
	sinceSnap atomic.Uint64 // events applied since the last snapshot
	walBuf    []byte        // WAL record encode scratch (under ingestMu)
	snapBuf   []byte        // snapshot encode scratch (under snapMu)

	// Group commit (Config.Dir with wal.SyncAlways — see commit.go).
	// lastAppend is the WAL seq of the newest accepted batch (under
	// ingestMu); syncing marks a leader's fsync in flight, ackedDurable
	// the newest seq covered by a completed fsync and commitErr the
	// sticky fsync failure (all three under commitMu); syncs counts the
	// fsyncs the leaders ran.
	groupCommit  bool
	lastAppend   uint64
	commitMu     sync.Mutex
	commitCond   *sync.Cond
	syncing      bool
	ackedDurable uint64
	commitErr    error
	syncs        atomic.Uint64
	// preSync/postSync run around each group-commit fsync. Test-only.
	preSync, postSync func()

	mu       sync.Mutex // guards everything below
	tlbs     []*tlb.TLB
	view     comm.TLBView
	matrix   *comm.Matrix
	machine  *topology.Machine
	online   *mapping.OnlineMapper
	lastSnap *comm.Matrix // matrix snapshot at the previous query epoch
	// appliedSeq is the WAL seq of the last fully applied batch and
	// appliedSources the applied-side view of the dedup map. They are
	// updated together with the state they describe (same mu critical
	// section), so a snapshot is always consistent: if it contains a
	// batch's effects it also records that batch as applied — a client
	// retrying an unacked batch after recovery is correctly deduplicated
	// instead of double-applied.
	appliedSeq     uint64
	appliedSources map[string]uint64

	// lastPlacement is the placement most recently put in force by a
	// completed query — the deadline fallback. Readable without mu so a
	// degraded query never waits behind the mapping that blew the budget.
	lastPlacement atomic.Value // []int

	ingested atomic.Uint64 // events accepted into the queue
	applied  atomic.Uint64 // events folded into detector state
	dropped  atomic.Uint64 // accepted events discarded (evict, quarantine)
	rejected atomic.Uint64 // events refused at Ingest (overload)
	lost     atomic.Uint64
	storms   atomic.Uint64

	// fault injection (nil rng = scenario disarmed). The prng state is
	// serialized in snapshots so recovered injection replays exactly.
	plan     fault.Plan
	lossRng  *prng
	stormRng *prng

	// applyHook, when non-nil, observes every event just before it is
	// applied. Test-only: fault tests use it to detonate panics inside
	// the applier.
	applyHook func(Event)
}

// TenantSnapshot is the consistent point-in-time view Snapshot returns.
type TenantSnapshot struct {
	ID      string
	Threads int
	// Matrix is a deep copy of the communication matrix.
	Matrix *comm.Matrix
	// Ingested counts events accepted into the queue, Applied the ones
	// folded into detector state, Dropped the accepted ones discarded
	// (evict/quarantine), Rejected the ones refused at Ingest
	// (overload). After a drain, Applied + Dropped == Ingested.
	Ingested, Applied, Dropped, Rejected uint64
	LostSamples, Storms                  uint64
	QueueLen                             int
	Quarantined                          bool
	// PanicValue and PanicStack describe the quarantining panic.
	PanicValue any
	PanicStack []byte
	// Remaps/Fallbacks/Decisions/Confidence mirror the online mapper.
	Remaps, Fallbacks, Decisions int
	Confidence                   float64
}

// newTenant builds the tenant's detector and mapper state and derives its
// fault RNG streams (per-tenant, per-scenario, from the plan seed — one
// tenant's injections never perturb another's). With Config.Dir set it
// also opens the tenant's durable state — snapshot, WAL tail replay —
// so a freshly created tenant resumes exactly where a crashed or drained
// predecessor of the same id left off.
func newTenant(id string, threads int, cfg Config) (*tenant, error) {
	machine := machineFor(threads)
	t := &tenant{
		id:             id,
		threads:        threads,
		queue:          make(chan batch, cfg.QueueCap),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		tlbs:           make([]*tlb.TLB, threads),
		matrix:         comm.NewMatrix(threads),
		machine:        machine,
		online:         mapping.NewOnlineMapper(machine, 0),
		plan:           cfg.Faults,
		sources:        make(map[string]uint64),
		appliedSources: make(map[string]uint64),
		snapEvery:      uint64(cfg.SnapshotEvery),
	}
	t.commitCond = sync.NewCond(&t.commitMu)
	for i := range t.tlbs {
		t.tlbs[i] = tlb.New(tlb.DefaultConfig)
	}
	t.view = comm.NewTLBView(t.tlbs)
	t.lastPlacement.Store(t.online.Placement())
	if r := cfg.Faults.Intensity[fault.SampleLoss]; r > 0 {
		t.lossRng = newPrng(runner.Seed(seedOf(cfg.Faults), "serve", id, fault.SampleLoss.String()))
	}
	if r := cfg.Faults.Intensity[fault.ShootdownStorm]; r > 0 {
		t.stormRng = newPrng(runner.Seed(seedOf(cfg.Faults), "serve", id, fault.ShootdownStorm.String()))
	}
	if cfg.Dir != "" {
		if err := t.openDurable(cfg); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", id, err)
		}
	}
	return t, nil
}

// seedOf mirrors fault.New's convention: a zero plan seed means 1, so an
// armed plan is always reproducible.
func seedOf(p fault.Plan) int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// machineFor picks a topology for a tenant's thread count (a power of
// two): small counts get a single-socket shape, 32 and up the canonical
// manycore machine — so the serving hot path exercises the multilevel
// mapper for large tenants exactly as the scale studies do.
func machineFor(threads int) *topology.Machine {
	if threads >= 32 {
		return topology.Manycore(threads)
	}
	coresPerL2 := threads
	if coresPerL2 > 4 {
		coresPerL2 = 4
	}
	return topology.MultiSocket(1, threads/coresPerL2, coresPerL2)
}

// shutdown signals the applier to exit. Safe to call from both Evict and
// Drain (whichever wins closes the channel once).
func (t *tenant) shutdown() { t.once.Do(func() { close(t.stop) }) }

// run is the applier: it drains the bounded queue, serializing all
// detector-state mutation for this tenant. On stop it either discards
// (evict) or finishes (drain) whatever is queued, then exits. The WAL is
// not closed here — eviction, drain finalization and the chaos tests'
// crash simulation each end its life differently.
func (t *tenant) run() {
	defer close(t.done)
	for {
		select {
		case b := <-t.queue:
			t.applyBatch(b)
			recycleEvents(b.events)
			t.maybeCheckpoint()
		case <-t.stop:
			for {
				select {
				case b := <-t.queue:
					if t.drain.Load() {
						t.applyBatch(b)
					} else {
						t.dropped.Add(uint64(len(b.events)))
					}
					recycleEvents(b.events)
				default:
					return
				}
			}
		}
	}
}

// applyBatch folds one batch into the detector state under the tenant
// lock. A panic anywhere inside quarantines the tenant — the stack is
// retained, the remaining events of the batch are dropped, and sibling
// tenants (including ones on the same shard) are untouched because all
// state here is tenant-local.
func (t *tenant) applyBatch(b batch) {
	if t.quarantine.Load() != nil {
		t.dropped.Add(uint64(len(b.events)))
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	applied := 0
	defer func() {
		if r := recover(); r != nil {
			// Counters first: snapshot trusts them once the flag is up.
			t.dropped.Add(uint64(len(b.events) - applied))
			t.quarantine.Store(&runner.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	for _, e := range b.events {
		if t.applyHook != nil {
			t.applyHook(e)
		}
		t.applyOne(e)
		applied++
		t.applied.Add(1)
	}
	// Only a fully applied batch advances the durable bookkeeping; a
	// panic above leaves it at the previous batch, and the tenant is
	// quarantined anyway.
	if b.seq != 0 {
		t.appliedSeq = b.seq
	}
	if b.source != "" {
		t.appliedSources[b.source] = b.srcSeq
	}
	t.sinceSnap.Add(uint64(applied))
}

// applyOne is the SM detection step of Figure 1a, one sample at a time:
// look the page up in the thread's TLB; on a miss, run the engine's
// search (comm.SMSearch) — one unit of communication with every thread
// currently holding a translation for the page — then refill. A hit only
// refreshes LRU state — resident pages are not re-counted, mirroring the
// trap-driven mechanism.
func (t *tenant) applyOne(e Event) {
	if t.stormRng != nil && t.stormRng.Float64() < t.plan.Intensity[fault.ShootdownStorm]*stormPerEvent {
		t.shootdown()
	}
	tl := t.tlbs[e.Thread]
	if _, hit := tl.Lookup(e.Page); hit {
		return
	}
	if t.lossRng != nil && t.lossRng.Float64() < t.plan.Intensity[fault.SampleLoss] {
		// The trap is lost: the refill happens, the detector never sees it.
		t.lost.Add(1)
	} else {
		comm.SMSearch(t.matrix, t.view, int(e.Thread), e.Page)
	}
	tl.Insert(vm.Translation{Page: e.Page, Frame: vm.Frame(e.Page)})
}

// shootdown is the ShootdownStorm injector on the ingest path: flush the
// full TLBs of 1-3 random threads, exactly the storm the engine-side
// injector performs. The presence index follows automatically (Flush
// maintains it), which the fault tests re-validate.
func (t *tenant) shootdown() {
	t.storms.Add(1)
	n := 1 + t.stormRng.Intn(3)
	for i := 0; i < n; i++ {
		t.tlbs[t.stormRng.Intn(t.threads)].Flush()
	}
}

// snapshot builds the consistent point-in-time view.
func (t *tenant) snapshot() *TenantSnapshot {
	pe := t.quarantine.Load() // before the counters: see applyBatch
	snap := &TenantSnapshot{
		ID:          t.id,
		Threads:     t.threads,
		Ingested:    t.ingested.Load(),
		Applied:     t.applied.Load(),
		Dropped:     t.dropped.Load(),
		Rejected:    t.rejected.Load(),
		LostSamples: t.lost.Load(),
		Storms:      t.storms.Load(),
		QueueLen:    len(t.queue),
	}
	if pe != nil {
		snap.Quarantined = true
		snap.PanicValue = pe.Value
		snap.PanicStack = append([]byte(nil), pe.Stack...)
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap.Matrix = t.matrix.Clone()
	snap.Remaps = t.online.Remaps()
	snap.Fallbacks = t.online.Fallbacks()
	snap.Decisions = t.online.Decisions()
	snap.Confidence = t.online.Confidence()
	return snap
}
