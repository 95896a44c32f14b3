package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlbmap/internal/wal"
)

// Wire-level group-commit tests: a durable SyncAlways server over
// net.Pipe, with the tenant's fsync blocked or killed through its
// test-only preSync/postSync hooks.

// send writes the lines as one pipelined burst: a single Write, which the
// server's reader takes in with a single Read.
func (c *protoClient) send(lines ...string) {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		c.t.Fatalf("write burst: %v", err)
	}
}

// read returns the next response line.
func (c *protoClient) read() string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	resp, err := c.rd.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	return strings.TrimSuffix(resp, "\n")
}

// silent asserts that not one byte arrives within d.
func (c *protoClient) silent(d time.Duration) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(d))
	defer c.conn.SetReadDeadline(time.Time{})
	if b, err := c.rd.ReadByte(); err == nil {
		c.t.Fatalf("byte %q reached the client before the covering fsync", b)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		c.t.Fatalf("read: %v", err)
	}
}

// durableTenant opens a durable SyncAlways server in dir and binds c to a
// fresh tenant on it, returning the tenant.
func durableTenant(t *testing.T, dir, hello string) (*Server, *protoClient, *tenant) {
	t.Helper()
	s, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c := dialProto(t, s)
	c.expectOK(hello)
	tn, err := s.lookup(strings.Fields(hello)[1])
	if err != nil {
		t.Fatal(err)
	}
	if !tn.groupCommit {
		t.Fatal("SyncAlways durable tenant should be in group-commit mode")
	}
	return s, c, tn
}

// blockSync makes the tenant's next group-commit fsyncs wait until the
// returned release function is called; entered receives once a leader is
// blocked there.
func blockSync(tn *tenant) (entered <-chan struct{}, release func()) {
	in := make(chan struct{}, 1)
	gate := make(chan struct{})
	tn.preSync = func() {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
	}
	return in, func() { close(gate) }
}

// awaitLeader waits for a leader to block in the fsync hook.
func awaitLeader(t *testing.T, entered <-chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no group-commit leader reached the fsync")
	}
}

// seqLines numbers E lines for a sourced session, from first on.
func seqLines(lines [][]byte, first int) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = fmt.Sprintf("E %d%s", first+i, l[1:])
	}
	return out
}

// TestBurstAcksAfterOneFsync: eight pipelined E lines are ingested before
// any ack leaves, and all eight acks ride one fsync.
func TestBurstAcksAfterOneFsync(t *testing.T) {
	s, c, tn := durableTenant(t, t.TempDir(), "HELLO app 8")
	entered, release := blockSync(tn)
	before := s.Stats().Syncs

	var burst []string
	for _, l := range ingestLines(1, 8, 8, 50) {
		burst = append(burst, string(l))
	}
	c.send(burst...)
	awaitLeader(t, entered)
	c.silent(50 * time.Millisecond)
	release()
	for i := range burst {
		if got := c.read(); got != "OK 50" {
			t.Fatalf("ack %d = %q, want \"OK 50\"", i+1, got)
		}
	}
	if got := s.Stats().Syncs - before; got != 1 {
		t.Errorf("burst of %d batches took %d fsyncs, want 1", len(burst), got)
	}
}

// TestWireGroupCommitCrashTable crashes a durable server around the
// group commit of a pipelined burst — after the append, after the fsync,
// after the ack — and checks the wire contract at each point: every batch
// whose OK the client read is recovered, and a burst whose fsync failed
// is answered with one ERR per request and no OK.
func TestWireGroupCommitCrashTable(t *testing.T) {
	const (
		warm  = 2 // batches acknowledged before the crashing burst
		burst = 8
	)
	for _, point := range []string{"afterAppend", "afterFsync", "afterAck"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s, c, tn := durableTenant(t, dir, "HELLO app 8 src")
			lines := seqLines(ingestLines(3, 8, warm+burst, 50), 1)
			for _, l := range lines[:warm] {
				c.expectOK(l)
			}
			var armed atomic.Bool
			crash := func() {
				if armed.Load() {
					tn.wlog.Abort()
				}
			}
			switch point {
			case "afterAppend":
				tn.preSync = crash
			case "afterFsync":
				tn.postSync = crash
			}
			armed.Store(true)
			c.send(lines[warm:]...)
			acked := warm
			for i := 0; i < burst; i++ {
				resp := c.read()
				switch {
				case resp == "OK 50":
					acked++
				case point == "afterAppend" && strings.HasPrefix(resp, "ERR") &&
					strings.Contains(resp, "quarantined"):
				default:
					t.Fatalf("burst response %d = %q", i+1, resp)
				}
			}
			want := warm + burst
			if point == "afterAppend" {
				want = warm
				if acked != warm {
					t.Fatalf("%d acks escaped a failed fsync", acked-warm)
				}
				c.expectERR(fmt.Sprintf("E %d 0:1", want+1))
			}
			crashServer(s)

			r, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := r.SourceSeq("app", "src")
			if err != nil {
				t.Fatal(err)
			}
			if seq < uint64(acked) {
				t.Fatalf("recovered source seq %d, but the client read %d acks", seq, acked)
			}
			if seq != uint64(want) {
				t.Fatalf("recovered source seq %d, want %d", seq, want)
			}
			snap, err := r.Snapshot("app")
			if err != nil {
				t.Fatal(err)
			}
			if snap.Applied != uint64(want*50) {
				t.Fatalf("recovered %d events, want %d", snap.Applied, want*50)
			}
		})
	}
}

// TestHeldAcksWaitForFsync covers the acks that do not append: an "OK dup"
// retransmit ack, and the acks buffered before a HELLO rebinds the session
// to another tenant, are both held until the first tenant's fsync.
func TestHeldAcksWaitForFsync(t *testing.T) {
	t.Run("dup", func(t *testing.T) {
		s, c1, tn := durableTenant(t, t.TempDir(), "HELLO app 8 src1")
		c2 := dialProto(t, s)
		c2.expectOK("HELLO app 8 src2")
		c2.expectOK("E 1 0:1 1:2")

		entered, release := blockSync(tn)
		c1.send("E 1 2:3 3:4")
		awaitLeader(t, entered)
		c2.send("E 1 0:1 1:2")
		c2.silent(50 * time.Millisecond)
		release()
		if got := c1.read(); got != "OK 2" {
			t.Errorf("src1 ack = %q, want \"OK 2\"", got)
		}
		if got := c2.read(); got != "OK dup" {
			t.Errorf("src2 retransmit ack = %q, want \"OK dup\"", got)
		}
	})

	t.Run("hello", func(t *testing.T) {
		_, c, tn := durableTenant(t, t.TempDir(), "HELLO a 8")
		entered, release := blockSync(tn)
		c.send("E 0:1 1:2", "HELLO b 8", "E 0:3 1:4")
		awaitLeader(t, entered)
		c.silent(50 * time.Millisecond)
		release()
		for _, want := range []string{"OK 2", "OK", "OK 2"} {
			if got := c.read(); got != want {
				t.Fatalf("response %q, want %q", got, want)
			}
		}
	})

	t.Run("helloAfterFailedFsync", func(t *testing.T) {
		// The rebind releases only the first tenant's acks: its failed
		// fsync turns them into ERRs, and the second tenant's session
		// goes on unharmed.
		_, c, tn := durableTenant(t, t.TempDir(), "HELLO a 8")
		tn.preSync = func() { tn.wlog.Abort() }
		c.send("E 0:1 1:2", "E 2:3", "HELLO b 8", "E 0:3 1:4")
		for _, want := range []string{"ERR", "ERR", "OK", "OK 2"} {
			if got := c.read(); !strings.HasPrefix(got, want) || (want == "OK" && got != "OK") {
				t.Fatalf("response %q, want %s", got, want)
			}
		}
	})
}

// TestConcurrentGroupCommit drives leader/follower group commit from many
// goroutines at once, on two tenants: every acked batch must survive a
// crash, and no batch may need more than one fsync of its own.
func TestConcurrentGroupCommit(t *testing.T) {
	const writers, per = 8, 20
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"a", "b"}
	for _, id := range tenants {
		if err := s.CreateTenant(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	batches := chaosBatches(5, 8, per, 16)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for _, evs := range batches {
				if err := s.Ingest(tenants[w%len(tenants)], evs); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Syncs == 0 || st.Syncs > writers*per {
		t.Errorf("%d acked batches took %d fsyncs", writers*per, st.Syncs)
	}
	crashServer(s)

	r, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats().Applied, uint64(writers*per*16); got != want {
		t.Fatalf("recovered %d events, want every acked one (%d)", got, want)
	}
}

// TestFollowerLeadsNextRound: a batch appended after the leader's fsync
// began is not covered by it, so its waiter must not return on the
// leader's wake-up — it leads a second fsync of its own.
func TestFollowerLeadsNextRound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("app", 8); err != nil {
		t.Fatal(err)
	}
	tn, err := s.lookup("app")
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan struct{}, 1)
	gate := make(chan struct{})
	tn.postSync = func() {
		select {
		case synced <- struct{}{}:
		default:
		}
		<-gate
	}
	evs := chaosBatches(2, 8, 2, 16)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- s.Ingest("app", evs[0]) }()
	awaitLeader(t, synced) // batch 1 is fsynced; its leader has not woken anyone
	go func() { second <- s.Ingest("app", evs[1]) }()
	select {
	case err := <-second:
		t.Fatalf("batch 2 acked (err %v) before any fsync could cover it", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Errorf("%d fsyncs, want 2: the follower must lead its own round", got)
	}
	crashServer(s)
	r, err := Open(Config{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Applied; got != 32 {
		t.Fatalf("recovered %d events, want both acked batches (32)", got)
	}
}

// TestDrainReleasesPendingAcks: a connection still waiting for its fsync
// when Drain closes the log gets its ack — the close's own fsync covered
// the batch — instead of a spurious quarantine.
func TestDrainReleasesPendingAcks(t *testing.T) {
	s, c, tn := durableTenant(t, t.TempDir(), "HELLO app 8")
	entered, release := blockSync(tn)
	c.send("E 0:1 1:2")
	awaitLeader(t, entered)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	release()
	if got := c.read(); got != "OK 2" {
		t.Fatalf("ack after drain = %q, want \"OK 2\"", got)
	}
	if st := s.Stats(); st.Quarantines != 0 {
		t.Fatalf("%d tenants quarantined by a drain", st.Quarantines)
	}
}
