package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"tlbmap/internal/vm"
)

func TestTraceRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewTraceRecorder(4, &buf)
	direct := NewOracleDetector(4, PageGranularity)

	// A synthetic access stream: interleaved shared and private pages.
	accesses := []struct {
		thread int
		page   vm.Page
	}{
		{0, 10}, {1, 10}, {2, 30}, {0, 11}, {1, 10}, {3, 10}, {2, 31}, {0, 10},
	}
	for _, a := range accesses {
		addr := vm.Addr(a.page)<<vm.PageShift + 8
		rec.OnAccess(a.thread, addr)
		direct.OnAccess(a.thread, addr)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Records() != uint64(len(accesses)) {
		t.Errorf("records = %d", rec.Records())
	}
	if rec.BytesWritten() == 0 || uint64(buf.Len()) != rec.BytesWritten() {
		t.Errorf("bytes = %d, buffer = %d", rec.BytesWritten(), buf.Len())
	}

	// Offline analysis: replaying the trace into a fresh oracle must
	// reproduce the directly-detected matrix.
	replayed := NewOracleDetector(4, PageGranularity)
	n, err := ReplayTrace(&buf, 4, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(accesses)) {
		t.Errorf("replayed %d records", n)
	}
	if replayed.Matrix().Similarity(direct.Matrix()) < 0.9999 ||
		replayed.Matrix().Total() != direct.Matrix().Total() {
		t.Errorf("replayed matrix differs:\n%s\nvs\n%s",
			replayed.Matrix(), direct.Matrix())
	}
}

func TestTraceRecorderCompactEncoding(t *testing.T) {
	var buf bytes.Buffer
	rec := NewTraceRecorder(1, &buf)
	// Sequential pages: deltas of 1 must encode in 2 bytes per record.
	for p := vm.Page(100); p < 200; p++ {
		rec.OnAccess(0, vm.Addr(p)<<vm.PageShift)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rec.BytesWritten(); got > 100*3 {
		t.Errorf("sequential trace took %d bytes for 100 records", got)
	}
}

func TestTraceRecorderDetectorContract(t *testing.T) {
	rec := NewTraceRecorder(2, &bytes.Buffer{})
	if rec.Name() != "trace-recorder" {
		t.Error("name")
	}
	if rec.Matrix() != nil {
		t.Error("recorder should produce no matrix")
	}
	if rec.OnTLBMiss(0, 0, TLBView{}) != 0 || rec.MaybeScan(0, TLBView{}) != 0 {
		t.Error("recorder should be free at simulation time")
	}
}

func TestReplayTraceRejectsGarbage(t *testing.T) {
	// Thread byte out of range.
	if _, err := ReplayTrace(bytes.NewReader([]byte{9, 2}), 4, NullDetector{}); err == nil {
		t.Error("out-of-range thread accepted")
	}
	// Truncated varint.
	if _, err := ReplayTrace(bytes.NewReader([]byte{0, 0x80}), 4, NullDetector{}); err == nil {
		t.Error("truncated record accepted")
	}
	// Negative page via a big negative delta.
	var buf bytes.Buffer
	rec := NewTraceRecorder(1, &buf)
	rec.OnAccess(0, vm.Addr(5<<vm.PageShift))
	rec.Flush()
	data := buf.Bytes()
	// Append a record jumping far below zero: thread 0, delta -1000.
	neg := append([]byte{0}, encodeVarint(-1000)...)
	if _, err := ReplayTrace(bytes.NewReader(append(data, neg...)), 1, NullDetector{}); err == nil {
		t.Error("negative page accepted")
	}
	// Empty trace is fine.
	if n, err := ReplayTrace(bytes.NewReader(nil), 1, NullDetector{}); err != nil || n != 0 {
		t.Errorf("empty trace: %d, %v", n, err)
	}
}

func encodeVarint(v int64) []byte {
	buf := make([]byte, 10)
	n := putVarintHelper(buf, v)
	return buf[:n]
}

func putVarintHelper(buf []byte, v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	i := 0
	for uv >= 0x80 {
		buf[i] = byte(uv) | 0x80
		uv >>= 7
		i++
	}
	buf[i] = byte(uv)
	return i + 1
}

// ReplayTrace reads a trace produced by TraceRecorder and feeds every
// access to the given detector's OnAccess — the offline analysis pass of
// the trace-based approaches. It returns the number of records replayed.
func ReplayTrace(rd io.Reader, n int, det Detector) (uint64, error) {
	br := bufio.NewReader(rd)
	lastPage := make([]int64, n)
	var count uint64
	for {
		threadByte, err := br.ReadByte()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("comm: replay: %w", err)
		}
		thread := int(threadByte)
		if thread >= n {
			return count, fmt.Errorf("comm: replay: thread %d out of range", thread)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return count, fmt.Errorf("comm: replay: truncated record %d: %w", count, err)
		}
		lastPage[thread] += delta
		if lastPage[thread] < 0 {
			return count, fmt.Errorf("comm: replay: negative page at record %d", count)
		}
		det.OnAccess(thread, vm.Addr(lastPage[thread])<<vm.PageShift)
		count++
	}
}
