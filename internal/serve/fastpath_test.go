package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlbmap/internal/wal"
)

// ingestLines builds deterministic E-line wire bytes with the loadgen
// neighbor pattern: per events each, threads in [0, threads).
func ingestLines(seed int64, threads, nlines, per int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	lines := make([][]byte, nlines)
	for i := range lines {
		line := []byte("E")
		for k := 0; k < per; k++ {
			th := rng.Intn(threads)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(th), 10)
			line = append(line, ':')
			line = strconv.AppendUint(line, uint64(th*64+rng.Intn(96)), 10)
		}
		lines[i] = line
	}
	return lines
}

// missLines builds E-line wire bytes in which every thread cycles through
// one pool of 128 shared pages, twice what a default TLB holds: with LRU
// replacement every event misses, and the other threads near the same
// point of the cycle hold the page. The lines carry exactly one cycle per
// thread, so replaying them in a loop continues every cycle.
func missLines(threads, per int) [][]byte {
	lines := make([][]byte, threads*128/per)
	k := 0
	for i := range lines {
		line := []byte("E")
		for e := 0; e < per; e++ {
			th := k % threads
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(th), 10)
			line = append(line, ':')
			line = strconv.AppendInt(line, int64(1+(k/threads+th)%128), 10)
			k++
		}
		lines[i] = line
	}
	return lines
}

// TestIngestSteadyStateZeroAllocs is the serving-plane mirror of the
// engine's TestSteadyStateZeroAllocs: once a connection is warmed up, the
// whole ingest path — wire parse, batch copy, enqueue, response build,
// apply — must not allocate per event. It drives session.handle directly
// (exactly what ServeConn calls per line) and waits for the applier after
// every line so the slab recycling loop is exercised, then asserts the
// short/long differential: fixed warmup costs cancel, per-event costs
// don't. The stream keeps missing on pages other threads hold, so every
// tenant size runs the search; at 512 threads a holder mask spans eight
// words, which the search must read in place rather than copy.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	for _, threads := range []int{8, 64, 512} {
		threads := threads
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			const per = 64
			// Start from an empty slab pool: a slab an earlier test left
			// there may be smaller than these lines, and copying a line
			// into it grows it, which allocates. The warm-up below refills
			// the pool with slabs that fit.
			for drained := false; !drained; {
				select {
				case <-eventSlabs:
				default:
					drained = true
				}
			}
			s := New(Config{QueueCap: 64})
			t.Cleanup(func() {
				if err := s.Drain(context.Background()); err != nil {
					t.Error(err)
				}
			})
			sess := &session{srv: s}
			resp := make([]byte, 0, 256)
			resp, _ = sess.handle([]byte(fmt.Sprintf("HELLO zeroalloc %d", threads)), resp[:0])
			if string(resp) != "OK" {
				t.Fatalf("HELLO: %s", resp)
			}
			tn, err := s.lookup("zeroalloc")
			if err != nil {
				t.Fatal(err)
			}
			lines := missLines(threads, per)

			var sent uint64
			next := 0 // the stream continues across runs
			run := func(n int) func() {
				return func() {
					for i := 0; i < n; i++ {
						resp, _ = sess.handle(lines[next%len(lines)], resp[:0])
						next++
						if len(resp) < 2 || resp[0] != 'O' {
							panic("ingest: " + string(resp))
						}
						sent += per
						for tn.applied.Load() < sent {
							runtime.Gosched()
						}
					}
				}
			}
			total := func() uint64 {
				tn.mu.Lock()
				defer tn.mu.Unlock()
				return tn.matrix.Total()
			}
			run(64)() // warm: grow scratch buffers, seed the slab pool
			warm := total()

			const shortN, longN = 25, 225
			shortAllocs := testing.AllocsPerRun(5, run(shortN))
			longAllocs := testing.AllocsPerRun(5, run(longN))
			perEvent := (longAllocs - shortAllocs) / float64((longN-shortN)*per)
			if perEvent > 0.01 {
				t.Errorf("steady-state ingest allocates: %.4f allocs/event (short run %.0f, long run %.0f)",
					perEvent, shortAllocs, longAllocs)
			}
			if total() == warm {
				t.Error("measured stream found no sharer: the search path went unexercised")
			}
		})
	}
}

// TestOversizedLineCleanErr pins the line-cap contract: a request line
// longer than any legal request draws a clean one-line ERR — not a
// scanner error that kills the connection — and the connection keeps
// serving afterwards.
func TestOversizedLineCleanErr(t *testing.T) {
	s := New(Config{})
	cl, sv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(sv)
	}()
	defer func() {
		cl.Close()
		<-done
	}()
	rd := bufio.NewReaderSize(cl, 1<<12)
	send := func(line string) string {
		t.Helper()
		if _, err := cl.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return strings.TrimSuffix(resp, "\n")
	}
	if got := send("HELLO big 8"); got != "OK" {
		t.Fatalf("HELLO: %q", got)
	}
	// One monster line, well past maxLineBytes, written in chunks so the
	// synchronous pipe never deadlocks against the server's consume loop.
	var huge bytes.Buffer
	huge.WriteString("E")
	for huge.Len() <= maxLineBytes+1024 {
		huge.WriteString(" 0:1")
	}
	huge.WriteString("\n")
	go cl.Write(huge.Bytes())
	resp, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("oversized response: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR") || !strings.Contains(resp, "exceeds") {
		t.Fatalf("oversized line: want clean ERR, got %q", resp)
	}
	// The connection must still work.
	if got := send("E 0:1 1:2"); got != "OK 2" {
		t.Fatalf("post-oversize ingest: %q", got)
	}
	if got := send("BYE"); got != "OK bye" {
		t.Fatalf("BYE: %q", got)
	}
}

// TestGroupCommitCrashTable extends the chaos battery to the group-commit
// boundaries: the process is SIGKILLed (via wal.Abort) at each point of
// the append → group fsync → ack release sequence, and at every crash
// point no acked batch may be lost, recovery invariants must hold, and a
// resumed client must land on exactly-once application.
func TestGroupCommitCrashTable(t *testing.T) {
	const (
		threads = 8
		per     = 32
		K       = 5 // batches; the crash is arranged around batch K's commit
	)
	for _, point := range []string{"afterAppend", "afterFsync", "afterAck"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTenant("app", threads); err != nil {
				t.Fatal(err)
			}
			tn, err := s.lookup("app")
			if err != nil {
				t.Fatal(err)
			}
			if !tn.groupCommit {
				t.Fatal("SyncAlways durable tenant should be in group-commit mode")
			}
			var armed atomic.Bool
			crash := func() {
				if armed.Load() {
					tn.wlog.Abort()
				}
			}
			switch point {
			case "afterAppend":
				// Crash between the buffered append and its group fsync:
				// batch K is in the userspace buffer only and must be lost
				// — AND its ingest must not have been acknowledged.
				tn.preSync = crash
			case "afterFsync":
				// Crash between the group fsync and the ack release: batch
				// K is durable, the client never hears so; the retransmit
				// must dedup.
				tn.postSync = crash
			case "afterAck":
				// Crash after the ack: the classic acked-survives-crash
				// case, now with the ack released by the commit leader.
			}

			batches := chaosBatches(9, threads, K, per)
			ackedBatches := 0
			for bi, evs := range batches {
				if bi == K-1 {
					armed.Store(true)
				}
				err := s.IngestFrom("app", "src", uint64(bi+1), evs)
				if bi < K-1 || point != "afterAppend" {
					if err != nil {
						t.Fatalf("batch %d: %v", bi+1, err)
					}
					ackedBatches++
					continue
				}
				// afterAppend, batch K: the covering fsync failed, so the
				// ack MUST NOT have been released.
				if err == nil {
					t.Fatalf("batch %d acked although its group fsync never completed", bi+1)
				}
			}
			crashServer(s)

			expect := K // batches on disk after the crash
			if point == "afterAppend" {
				expect = K - 1
			}
			if expect < ackedBatches {
				t.Fatalf("crash table broken: %d acked but only %d survive", ackedBatches, expect)
			}

			r, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := r.SourceSeq("app", "src")
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(expect) {
				t.Fatalf("recovered source seq = %d, want %d", seq, expect)
			}
			snap, err := r.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			if snap.Applied != uint64(expect*per) {
				t.Fatalf("recovered applied = %d events, want %d", snap.Applied, expect*per)
			}
			if snap.Applied+snap.Dropped != snap.Ingested {
				t.Fatalf("recovery invariant: applied %d + dropped %d != ingested %d",
					snap.Applied, snap.Dropped, snap.Ingested)
			}

			// Resume: the client retransmits batch K. Lost → accepted;
			// durable-but-unacked or acked → deduplicated. Either way the
			// tenant ends with every batch applied exactly once.
			err = r.IngestFrom("app", "src", K, batches[K-1])
			if point == "afterAppend" {
				if err != nil {
					t.Fatalf("resend of lost batch: %v", err)
				}
			} else if !errors.Is(err, ErrDuplicateBatch) {
				t.Fatalf("resend of surviving batch: want ErrDuplicateBatch, got %v", err)
			}
			if err := r.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Differential: byte-identical matrix to a clean server that
			// applied the same K batches exactly once.
			ref := New(Config{})
			if err := ref.CreateTenant("app", threads); err != nil {
				t.Fatal(err)
			}
			for _, evs := range batches {
				if err := ref.Ingest("app", evs); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, err := r.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			if got.Applied != uint64(K*per) {
				t.Fatalf("after resume: applied %d events, want %d", got.Applied, K*per)
			}
			if !bytes.Equal(got.Matrix.AppendBinary(nil), want.Matrix.AppendBinary(nil)) {
				t.Fatal("recovered+resumed matrix differs from clean exactly-once run")
			}
		})
	}
}

// TestParallelRecoveryDifferential asserts serve.Open's recovery pool is
// invisible in the result: for every worker count the recovered tenants'
// full serialized state (snapshot codec: matrix, TLBs, mapper, PRNGs,
// dedup map) and the next query answer are identical to 1-worker (serial)
// recovery.
func TestParallelRecoveryDifferential(t *testing.T) {
	const (
		tenants  = 9
		threads  = 8
		nbatches = 12
		per      = 64
	)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 300}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("app-%02d", ti)
		if err := s.CreateTenant(id, threads); err != nil {
			t.Fatal(err)
		}
		for bi, evs := range chaosBatches(int64(ti+1), threads, nbatches, per) {
			if err := s.IngestFrom(id, "src", uint64(bi+1), evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash rather than drain: recovery has both snapshots and WAL tails
	// to chew through. Every batch was acked under SyncAlways, so nothing
	// is lost.
	crashServer(s)

	capture := func(workers int) (map[string][]byte, map[string]QueryResult) {
		t.Helper()
		cfg := cfg
		cfg.RecoveryWorkers = workers
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		states := make(map[string][]byte, tenants)
		for _, id := range r.Tenants() {
			tn, err := r.lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tn.mu.Lock()
			states[id] = tn.encodeStateLocked(nil)
			tn.mu.Unlock()
		}
		if len(states) != tenants {
			t.Fatalf("recovered %d tenants, want %d", len(states), tenants)
		}
		queries := make(map[string]QueryResult, tenants)
		for id := range states {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := r.Query(ctx, id)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			queries[id] = res
		}
		// Queries mutate only in-memory state and the crash discards it,
		// so every capture starts from the identical on-disk bytes.
		crashServer(r)
		return states, queries
	}

	baseStates, baseQueries := capture(1)
	for _, workers := range []int{2, 4, 8} {
		states, queries := capture(workers)
		for id, want := range baseStates {
			if !bytes.Equal(states[id], want) {
				t.Errorf("workers=%d: tenant %s recovered state differs from serial recovery", workers, id)
			}
			if !queryEqual(queries[id], baseQueries[id]) {
				t.Errorf("workers=%d: tenant %s query answer differs from serial recovery", workers, id)
			}
		}
	}
}
