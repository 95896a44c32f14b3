package comm

import (
	"bufio"
	"encoding/binary"
	"io"

	"tlbmap/internal/vm"
)

// TraceRecorder is a Detector that writes the full memory-access trace to a
// stream — the approach of the simulation-based related work the paper
// argues against (Section II: "the traces, even compressed, take a large
// amount of space (more than 100 gigabytes)"). It exists to reproduce that
// argument quantitatively: compare BytesWritten against the fixed few
// hundred bytes of a communication matrix.
//
// The format is compact: one byte of thread ID followed by the
// varint-encoded delta of the page number against the thread's previous
// access (spatial locality makes most deltas one byte).
type TraceRecorder struct {
	w        *bufio.Writer
	lastPage []int64
	records  uint64
	bytes    uint64
	err      error
}

// NewTraceRecorder writes the trace of n threads to w.
func NewTraceRecorder(n int, w io.Writer) *TraceRecorder {
	return &TraceRecorder{
		w:        bufio.NewWriter(w),
		lastPage: make([]int64, n),
	}
}

// Name implements Detector.
func (r *TraceRecorder) Name() string { return "trace-recorder" }

// OnAccess appends one record to the trace.
func (r *TraceRecorder) OnAccess(thread int, addr vm.Addr) {
	if r.err != nil {
		return
	}
	page := int64(addr.Page())
	delta := page - r.lastPage[thread]
	r.lastPage[thread] = page
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = byte(thread)
	n := binary.PutVarint(buf[1:], delta)
	if _, err := r.w.Write(buf[:1+n]); err != nil {
		r.err = err
		return
	}
	r.records++
	r.bytes += uint64(1 + n)
}

// OnTLBMiss implements Detector.
func (r *TraceRecorder) OnTLBMiss(int, vm.Page, TLBView) uint64 { return 0 }

// MaybeScan implements Detector.
func (r *TraceRecorder) MaybeScan(uint64, TLBView) uint64 { return 0 }

// Matrix implements Detector; a recorder produces no matrix — that is the
// point: the matrix only exists after a costly offline analysis pass.
func (r *TraceRecorder) Matrix() *Matrix { return nil }

// Flush drains the internal buffer and returns the first write error.
func (r *TraceRecorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Records returns the number of accesses recorded.
func (r *TraceRecorder) Records() uint64 { return r.records }

// BytesWritten returns the encoded trace size so far (before any final
// buffer flush padding; exact after Flush).
func (r *TraceRecorder) BytesWritten() uint64 { return r.bytes }
