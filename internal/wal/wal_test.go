package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// collect replays the log into (seq, payload) pairs.
func collect(t *testing.T, l *Log) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma"), bytes.Repeat([]byte{0xAB}, 5000)}
	for i, p := range want {
		seq, err := l.AppendBuffered(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("AppendBuffered %d returned seq %d", i, seq)
		}
	}
	seqs, payloads := collect(t, l)
	if len(seqs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Errorf("record %d: seq=%d payload=%q, want seq=%d payload=%q",
				i, seqs[i], payloads[i], i+1, want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, appends continue after the tail.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Truncated != nil {
		t.Fatalf("clean log reported truncation: %v", l2.Truncated)
	}
	seqs, _ = collect(t, l2)
	if len(seqs) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(seqs), len(want))
	}
	seq, err := l2.AppendBuffered([]byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want)+1) {
		t.Errorf("post-reopen AppendBuffered seq = %d, want %d", seq, len(want)+1)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~2 records rotate.
	l, err := Open(dir, Options{segmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.AppendBuffered([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 5 {
		t.Fatalf("expected many small segments, got %d", segs)
	}
	seqs, _ := collect(t, l)
	if len(seqs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(seqs), n)
	}

	// Compact through seq 10: only records 11..20 remain.
	removed, err := l.Compact(10)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact removed nothing")
	}
	seqs, _ = collect(t, l)
	for _, s := range seqs {
		if s <= 10-2 { // whole-segment granularity: at most one extra segment survives
			t.Errorf("record %d survived compaction through 10", s)
		}
	}
	if seqs[len(seqs)-1] != n {
		t.Errorf("newest record after compaction = %d, want %d", seqs[len(seqs)-1], n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen post-compaction: the gap before the first surviving segment
	// is legal.
	l2, err := Open(dir, Options{segmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Truncated != nil {
		t.Fatalf("compacted log reported truncation: %v", l2.Truncated)
	}
	if last := l2.LastSeq(); last != n {
		t.Errorf("LastSeq after reopen = %d, want %d", last, n)
	}
}

func TestReserveSkipsSequenceNumbers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBuffered([]byte("a")); err != nil {
		t.Fatal(err)
	}
	l.Reserve(100)
	seq, err := l.AppendBuffered([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 100 {
		t.Fatalf("AppendBuffered after Reserve(100) = seq %d, want 100", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Truncated != nil {
		t.Fatalf("gapped log reported truncation: %v", l2.Truncated)
	}
	seqs, _ := collect(t, l2)
	if len(seqs) != 2 || seqs[1] != 100 {
		t.Fatalf("replayed seqs %v, want [1 100]", seqs)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := l.AppendBuffered([]byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if policy == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for l.Synced() != 10 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if l.Synced() != 10 {
					t.Errorf("SyncInterval: Synced() = %d after interval, want 10", l.Synced())
				}
			} else if l.Synced() != 0 {
				// Under always the appender, not the log, calls Sync
				// before it acknowledges; under never nothing does.
				t.Errorf("%v: Synced() = %d before Sync, want 0", policy, l.Synced())
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if l.Synced() != 10 {
				t.Errorf("after explicit Sync: Synced() = %d, want 10", l.Synced())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAbortLosesOnlyUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendBuffered([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil { // records 1..5 reach the OS
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendBuffered([]byte(fmt.Sprintf("lost-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort() // crash: 6..10 were only in the userspace buffer

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2)
	if len(seqs) != 5 || seqs[len(seqs)-1] != 5 {
		t.Fatalf("after abort: recovered seqs %v, want exactly 1..5", seqs)
	}
	if _, err := l2.AppendBuffered([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 6 {
		t.Errorf("append after aborted tail: LastSeq = %d, want 6", l2.LastSeq())
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBuffered([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBuffered([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendBuffered on closed log: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync on closed log: %v, want ErrClosed", err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBuffered(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("AppendBuffered accepted a record over maxRecordBytes")
	}
	if _, err := l.AppendBuffered(make([]byte, maxRecordBytes)); err != nil {
		t.Fatalf("AppendBuffered rejected a record at the cap: %v", err)
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if _, err := ReadBlob(path); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("ReadBlob on missing file: %v, want ErrNoBlob", err)
	}
	payload := bytes.Repeat([]byte("snapshot-bytes"), 100)
	if err := WriteBlobAtomic(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlob(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("blob payload mismatch")
	}
	// Overwrite atomically: the new content fully replaces the old.
	if err := WriteBlobAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadBlob(path); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("blob after overwrite = %q, want v2", got)
	}

	// Flip one byte anywhere: ReadBlob must reject, never misread.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBlob(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: ReadBlob err = %v, want ErrCorrupt", i, err)
		}
	}
}

// Segments returns how many on-disk segments the log currently spans
// (completed plus the active one, if it holds records).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.segments)
	if l.actInfo.nrecords > 0 {
		n++
	}
	return n
}
