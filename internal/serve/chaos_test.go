package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"tlbmap/internal/fault"
	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// chaosBatches synthesizes a deterministic batch stream with the
// loadgen's neighbor-sharing pattern: thread t touches pages in
// [t*64, t*64+96), overlapping the next thread's window so the detector
// has real communication to find.
func chaosBatches(seed int64, threads, nbatches, per int) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Event, nbatches)
	for b := range out {
		evs := make([]Event, per)
		for i := range evs {
			th := rng.Intn(threads)
			evs[i] = Event{Thread: int32(th), Page: vm.Page(th*64 + rng.Intn(96))}
		}
		out[b] = evs
	}
	return out
}

// crashServer simulates SIGKILL in-process: every applier is stopped
// WITHOUT drain (whatever is still queued vanishes, as it would with the
// process), and each WAL is aborted — buffered but unsynced bytes are
// lost, modeling a page-cache tail the kernel never wrote back. The
// *Server is dead afterwards; recover through Open on the same dir.
func crashServer(s *Server) {
	s.draining.Store(true)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, t := range sh.tenants {
			t.shutdown()
			<-t.done
			if t.wlog != nil {
				t.wlog.Abort()
			}
		}
		sh.mu.Unlock()
	}
}

// walSegments lists a durable tenant's WAL segment paths, sorted.
func walSegments(t *testing.T, root, id string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(tenantDir(root, id), "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// queryEqual compares everything deterministic about two query results.
func queryEqual(a, b QueryResult) bool {
	if len(a.Placement) != len(b.Placement) {
		return false
	}
	for i := range a.Placement {
		if a.Placement[i] != b.Placement[i] {
			return false
		}
	}
	return a.Remapped == b.Remapped && a.Migrations == b.Migrations &&
		a.Reason == b.Reason && a.Confidence == b.Confidence && a.Degraded == b.Degraded
}

// TestCrashRecoveryDifferential is the tentpole chaos test: a durable
// server (WAL synced on every append) ingests a two-phase stream with
// queries and an explicit checkpoint between the phases, then crashes at
// a seeded random point of phase two. The recovered server's tenant state
// must be byte-identical — matrix cells AND rendering, mapper counters,
// the next query's full decision — to a never-crashed in-memory server
// that applied exactly the same acknowledged prefix. Fault injection is
// armed in half the rounds: the snapshot carries the injector PRNG
// states, so even the loss/storm sequence must replay exactly.
func TestCrashRecoveryDifferential(t *testing.T) {
	const (
		threads   = 16
		perBatch  = 128
		phase1    = 6
		phase2max = 10
	)
	for round, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Dir:  dir,
				Sync: wal.SyncAlways,
			}
			if round%2 == 1 {
				cfg.Faults = fault.Plan{Seed: seed}
				cfg.Faults.Intensity[fault.SampleLoss] = 0.05
				cfg.Faults.Intensity[fault.ShootdownStorm] = 0.3
			}
			rng := rand.New(rand.NewSource(seed))
			batches := chaosBatches(seed, threads, phase1+phase2max, perBatch)
			crashAt := phase1 + rng.Intn(phase2max+1) // in [phase1, phase1+phase2max]

			// drive replays the identical acknowledged prefix on any server.
			drive := func(s *Server, upTo int) {
				t.Helper()
				if err := s.CreateTenant("app", threads); err != nil {
					t.Fatal(err)
				}
				applied := uint64(0)
				for i := 0; i < phase1 && i < upTo; i++ {
					if err := s.Ingest("app", batches[i]); err != nil {
						t.Fatal(err)
					}
					applied += uint64(perBatch)
					// Interleave queries deterministically: wait until the
					// batch is applied so every query sees the same epoch.
					waitApplied(t, s, "app", applied)
					if _, err := s.Query(context.Background(), "app"); err != nil {
						t.Fatal(err)
					}
				}
				for i := phase1; i < upTo; i++ {
					if err := s.Ingest("app", batches[i]); err != nil {
						t.Fatal(err)
					}
				}
			}

			live, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			drive(live, phase1)
			// Pin the query-side state: mapper decisions after this point
			// would be lost in a crash (queries are not WAL-logged), so the
			// test issues none.
			if err := live.Checkpoint("app"); err != nil {
				t.Fatal(err)
			}
			for i := phase1; i < crashAt; i++ {
				if err := live.Ingest("app", batches[i]); err != nil {
					t.Fatal(err)
				}
			}
			crashServer(live)

			recovered, err := Open(cfg)
			if err != nil {
				t.Fatalf("recovery after crash at batch %d: %v", crashAt, err)
			}
			refCfg := cfg
			refCfg.Dir = ""
			ref := New(refCfg)
			drive(ref, crashAt)
			if err := ref.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			rs, err := recovered.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			ws, err := ref.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			if rs.Applied != ws.Applied {
				t.Fatalf("recovered applied %d events, reference %d", rs.Applied, ws.Applied)
			}
			if rs.Applied+rs.Dropped != rs.Ingested {
				t.Fatalf("counter invariant broken: applied %d + dropped %d != ingested %d",
					rs.Applied, rs.Dropped, rs.Ingested)
			}
			if rs.LostSamples != ws.LostSamples || rs.Storms != ws.Storms {
				t.Fatalf("fault injection diverged: lost %d/%d storms %d/%d",
					rs.LostSamples, ws.LostSamples, rs.Storms, ws.Storms)
			}
			if !rs.Matrix.Equal(ws.Matrix) {
				t.Fatal("recovered matrix differs from never-crashed reference")
			}
			if rs.Matrix.String() != ws.Matrix.String() {
				t.Fatal("recovered matrix renders differently")
			}
			if rs.Remaps != ws.Remaps || rs.Decisions != ws.Decisions || rs.Confidence != ws.Confidence {
				t.Fatalf("mapper state diverged: remaps %d/%d decisions %d/%d confidence %v/%v",
					rs.Remaps, ws.Remaps, rs.Decisions, ws.Decisions, rs.Confidence, ws.Confidence)
			}
			// The next decision must be identical too: epoch deltas, phase
			// tracker and confidence all recovered.
			rq, err := recovered.Query(context.Background(), "app")
			if err != nil {
				t.Fatal(err)
			}
			wq, err := ref.Query(context.Background(), "app")
			if err != nil {
				t.Fatal(err)
			}
			if !queryEqual(rq, wq) {
				t.Fatalf("post-recovery query diverged:\n recovered: %+v\n reference: %+v", rq, wq)
			}
		})
	}
}

// TestApplierCheckpointCadence crashes a server whose snapshots are
// written by the applier itself (small SnapshotEvery, no explicit
// Checkpoint): whatever mix of snapshot and WAL tail exists at the crash,
// recovery must still reconstruct the full acknowledged stream.
func TestApplierCheckpointCadence(t *testing.T) {
	const threads, perBatch, nbatches = 8, 64, 40
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 256}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := chaosBatches(3, threads, nbatches, perBatch)
	if err := s.CreateTenant("app", threads); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.Ingest("app", b); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, s, "app", uint64(nbatches*perBatch))
	crashServer(s)

	recovered, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newTenant("app", threads, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, e := range b {
			ref.applyOne(e)
		}
	}
	rs, err := recovered.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != uint64(nbatches*perBatch) {
		t.Fatalf("recovered %d events, want %d", rs.Applied, nbatches*perBatch)
	}
	if !rs.Matrix.Equal(ref.matrix) {
		t.Fatal("recovered matrix differs from single-threaded replay")
	}
}

// TestRecoveryLosesOnlyUnsyncedTail: under wal.SyncNever only rotation
// flushes reach disk, so a crash loses the buffered tail — but never a
// flushed prefix, and recovery must land exactly on a batch boundary of
// that prefix.
func TestRecoveryLosesOnlyUnsyncedTail(t *testing.T) {
	const threads, perBatch, nbatches = 8, 64, 60
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncNever, WALSegmentBytes: 4096}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := chaosBatches(9, threads, nbatches, perBatch)
	if err := s.CreateTenant("app", threads); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.Ingest("app", b); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, s, "app", uint64(nbatches*perBatch))
	crashServer(s)

	recovered, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := recovered.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied%perBatch != 0 {
		t.Fatalf("recovered %d events — not a batch boundary (batch %d)", rs.Applied, perBatch)
	}
	if rs.Applied == 0 {
		t.Fatal("rotation flushes should have persisted at least one segment")
	}
	if rs.Applied > uint64(nbatches*perBatch) {
		t.Fatalf("recovered %d events, more than the %d ingested", rs.Applied, nbatches*perBatch)
	}
	// The surviving prefix must match a clean replay of exactly that many
	// batches.
	ref, err := newTenant("app", threads, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:rs.Applied/perBatch] {
		for _, e := range b {
			ref.applyOne(e)
		}
	}
	if !rs.Matrix.Equal(ref.matrix) {
		t.Fatal("recovered prefix differs from clean replay")
	}
}

// TestTornAndFlippedWALTail damages the on-disk log of a crashed server —
// truncating at record boundaries, mid-record, and flipping bytes — and
// requires recovery to (a) never fail, (b) recover a batch-aligned prefix,
// (c) match a clean replay of that prefix, (d) keep the counter invariant.
func TestTornAndFlippedWALTail(t *testing.T) {
	const threads, perBatch, nbatches = 8, 32, 12
	// One WAL record per batch: header + source framing + events.
	const recBytes = 16 + 2 + 8 + 4 + 12*perBatch
	batches := chaosBatches(13, threads, nbatches, perBatch)

	damage := []struct {
		name string
		mut  func(t *testing.T, seg string)
	}{
		{"truncate-one-record", func(t *testing.T, seg string) { chop(t, seg, recBytes) }},
		{"truncate-mid-record", func(t *testing.T, seg string) { chop(t, seg, recBytes/2) }},
		{"truncate-mid-header", func(t *testing.T, seg string) { chop(t, seg, recBytes+recBytes-7) }},
		{"flip-byte-in-tail", func(t *testing.T, seg string) { flip(t, seg, 3*recBytes+20) }},
		{"flip-byte-in-header", func(t *testing.T, seg string) { flip(t, seg, 5*recBytes+4) }},
	}
	for _, d := range damage {
		d := d
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir, Sync: wal.SyncAlways}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTenant("app", threads); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := s.Ingest("app", b); err != nil {
					t.Fatal(err)
				}
			}
			waitApplied(t, s, "app", uint64(nbatches*perBatch))
			crashServer(s)

			segs := walSegments(t, dir, "app")
			if len(segs) == 0 {
				t.Fatal("no WAL segments on disk")
			}
			d.mut(t, segs[len(segs)-1])

			recovered, err := Open(cfg)
			if err != nil {
				t.Fatalf("recovery over damaged WAL must repair, not fail: %v", err)
			}
			rs, err := recovered.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			if rs.Applied%perBatch != 0 {
				t.Fatalf("recovered %d events — not a batch boundary", rs.Applied)
			}
			if rs.Applied >= uint64(nbatches*perBatch) {
				t.Fatalf("damage destroyed a record yet all %d events recovered", rs.Applied)
			}
			if rs.Applied+rs.Dropped != rs.Ingested {
				t.Fatalf("counter invariant broken after repair: %d+%d != %d",
					rs.Applied, rs.Dropped, rs.Ingested)
			}
			ref, err := newTenant("app", threads, Config{}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[:rs.Applied/perBatch] {
				for _, e := range b {
					ref.applyOne(e)
				}
			}
			if !rs.Matrix.Equal(ref.matrix) {
				t.Fatal("recovered prefix differs from clean replay")
			}
			// The repaired log must accept new writes.
			if err := recovered.Ingest("app", batches[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func chop(t *testing.T, path string, tail int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tail) >= fi.Size() {
		t.Fatalf("segment only %d bytes, cannot chop %d", fi.Size(), tail)
	}
	if err := os.Truncate(path, fi.Size()-int64(tail)); err != nil {
		t.Fatal(err)
	}
}

func flip(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xA5
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrainFinalizes is the SIGTERM regression: Drain must leave
// a finalized on-disk state — snapshot covering everything applied,
// compacted and cleanly closed WAL — such that reopening replays nothing
// and serves identical state.
func TestGracefulDrainFinalizes(t *testing.T) {
	const threads, perBatch, nbatches = 8, 64, 30
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncNever, WALSegmentBytes: 4096}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("app", threads); err != nil {
		t.Fatal(err)
	}
	for _, b := range chaosBatches(21, threads, nbatches, perBatch) {
		if err := s.Ingest("app", b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := s.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if before.Applied+before.Dropped != before.Ingested {
		t.Fatalf("drain broke the counter invariant: %d+%d != %d",
			before.Applied, before.Dropped, before.Ingested)
	}
	// Everything applied is in the final snapshot, so the WAL is fully
	// compacted: at most the one empty active segment remains.
	if segs := walSegments(t, dir, "app"); len(segs) > 1 {
		t.Fatalf("drain left %d WAL segments, want ≤1 after final compaction", len(segs))
	}

	reopened, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := reopened.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if after.Applied != before.Applied {
		t.Fatalf("reopen applied %d, want %d (nothing to replay after drain)", after.Applied, before.Applied)
	}
	if !after.Matrix.Equal(before.Matrix) {
		t.Fatal("reopened matrix differs from drained state")
	}
	if after.Remaps != before.Remaps || after.Decisions != before.Decisions ||
		after.Confidence != before.Confidence {
		t.Fatal("reopened mapper state differs from drained state")
	}
}

// TestSequenceResume exercises the idempotent-resume contract end to end:
// duplicates are rejected without re-applying, gaps are refused, and both
// the crash path (WAL replay) and the checkpoint path (snapshot dedup
// map) restore the per-source sequence state a reconnecting client
// queries via SourceSeq.
func TestSequenceResume(t *testing.T) {
	const threads = 8
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncAlways}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("app", threads); err != nil {
		t.Fatal(err)
	}
	batches := chaosBatches(31, threads, 6, 32)
	for i := 0; i < 3; i++ {
		if err := s.IngestFrom("app", "conn1", uint64(i+1), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.IngestFrom("app", "conn1", 2, batches[1]); !errors.Is(err, ErrDuplicateBatch) {
		t.Fatalf("retransmit of seq 2: got %v, want ErrDuplicateBatch", err)
	}
	if err := s.IngestFrom("app", "conn1", 5, batches[4]); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("skip to seq 5: got %v, want ErrSequenceGap", err)
	}
	if seq, _ := s.SourceSeq("app", "conn1"); seq != 3 {
		t.Fatalf("SourceSeq = %d, want 3", seq)
	}
	waitApplied(t, s, "app", 3*32)

	// Crash: the dedup state must come back from the WAL replay.
	crashServer(s)
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := s2.SourceSeq("app", "conn1"); seq != 3 {
		t.Fatalf("after crash: SourceSeq = %d, want 3", seq)
	}
	if err := s2.IngestFrom("app", "conn1", 3, batches[2]); !errors.Is(err, ErrDuplicateBatch) {
		t.Fatalf("post-crash retransmit of seq 3: got %v, want ErrDuplicateBatch", err)
	}
	if err := s2.IngestFrom("app", "conn1", 4, batches[3]); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s2, "app", 4*32)
	// A duplicate must not have been double-applied: exactly 4 batches.
	snap, err := s2.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Applied != 4*32 {
		t.Fatalf("applied %d events, want %d (duplicates must not re-apply)", snap.Applied, 4*32)
	}

	// Checkpoint, then crash with the WAL tail wiped: the dedup state must
	// now come back from the snapshot alone.
	if err := s2.Checkpoint("app"); err != nil {
		t.Fatal(err)
	}
	crashServer(s2)
	for _, seg := range walSegments(t, dir, "app") {
		if err := os.Truncate(seg, 0); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := s3.SourceSeq("app", "conn1"); seq != 4 {
		t.Fatalf("after snapshot-only recovery: SourceSeq = %d, want 4", seq)
	}
	snap3, err := s3.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Applied != 4*32 {
		t.Fatalf("snapshot-only recovery applied %d events, want %d", snap3.Applied, 4*32)
	}
}

// TestDurableEvictionIsTotal: evicting a durable tenant removes its
// directory, and a subsequent Open does not resurrect it.
func TestDurableEvictionIsTotal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncAlways}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("doomed", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("doomed", sharingEvents(4, 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.EvictTenant("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tenantDir(dir, "doomed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tenant dir survives eviction: %v", err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Tenants(); len(got) != 0 {
		t.Fatalf("evicted tenant resurrected: %v", got)
	}
}

// TestCheckpointCompactsWAL: snapshots license compaction — after a
// checkpoint the log retains at most the active segment.
func TestCheckpointCompactsWAL(t *testing.T) {
	const threads, perBatch, nbatches = 8, 64, 50
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncNever, WALSegmentBytes: 2048}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("app", threads); err != nil {
		t.Fatal(err)
	}
	for _, b := range chaosBatches(17, threads, nbatches, perBatch) {
		if err := s.Ingest("app", b); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, s, "app", uint64(nbatches*perBatch))
	grown := len(walSegments(t, dir, "app"))
	if grown < 3 {
		t.Fatalf("expected the log to grow past 3 segments, have %d", grown)
	}
	if err := s.Checkpoint("app"); err != nil {
		t.Fatal(err)
	}
	if after := len(walSegments(t, dir, "app")); after > 1 {
		t.Fatalf("checkpoint left %d segments, want ≤1", after)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
