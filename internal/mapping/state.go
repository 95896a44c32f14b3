package mapping

import (
	"encoding/binary"
	"fmt"
	"math"

	"tlbmap/internal/comm"
)

// floatBits/floatFromBits spell out that confidence round-trips through
// its exact IEEE 754 representation — no formatting, no precision loss.
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// OnlineState is the serializable controller state of an OnlineMapper: everything
// the controller accumulates across epochs, so a recovered instance makes
// byte-identical decisions from the next epoch on. Tuning knobs (MinGain,
// MinConfidence, Fallback, machine, algorithm) are configuration, not
// state — the restoring side reconstructs those.
type OnlineState struct {
	Placement  []int
	Remaps     int
	Fallbacks  int
	Decisions  int
	Confidence float64
	// PrevEpoch is the last non-idle epoch matrix folded into the
	// confidence EWMA (nil before the first).
	PrevEpoch *comm.Matrix
	// Reference and Phases mirror the PhaseTracker: the pattern the
	// current mapping is based on and how many phases were observed.
	Reference *comm.Matrix
	Phases    int
}

// State captures the controller's accumulated state.
func (o *OnlineMapper) State() OnlineState {
	st := OnlineState{
		Placement:  o.Placement(),
		Remaps:     o.remaps,
		Fallbacks:  o.fallbacks,
		Decisions:  o.decisions,
		Confidence: o.confidence,
		Phases:     o.tracker.phases,
	}
	if o.prevEpoch != nil {
		st.PrevEpoch = o.prevEpoch.Clone()
	}
	if o.tracker.reference != nil {
		st.Reference = o.tracker.reference.Clone()
	}
	return st
}

// Restore overwrites the controller's accumulated state with a snapshot
// taken by State. The placement must match the machine's core count; a
// mismatch is an error and leaves the controller untouched.
func (o *OnlineMapper) Restore(st OnlineState) error {
	if len(st.Placement) != o.machine.NumCores() {
		return fmt.Errorf("mapping: restore: placement for %d cores on a %d-core machine",
			len(st.Placement), o.machine.NumCores())
	}
	o.placement = append([]int(nil), st.Placement...)
	o.remaps = st.Remaps
	o.fallbacks = st.Fallbacks
	o.decisions = st.Decisions
	o.confidence = st.Confidence
	o.prevEpoch = nil
	if st.PrevEpoch != nil {
		o.prevEpoch = st.PrevEpoch.Clone()
	}
	o.tracker.phases = st.Phases
	o.tracker.reference = nil
	if st.Reference != nil {
		o.tracker.reference = st.Reference.Clone()
	}
	return nil
}

// AppendBinary appends the state's deterministic binary encoding:
//
//	u32 placement length, then u32 per core
//	u64 remaps, u64 fallbacks, u64 decisions, u64 phases
//	f64 confidence (IEEE 754 bits)
//	optional matrix ×2 (prev epoch, tracker reference)
func (st OnlineState) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Placement)))
	for _, c := range st.Placement {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Remaps))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Fallbacks))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Decisions))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Phases))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(st.Confidence))
	buf = comm.AppendOptionalMatrix(buf, st.PrevEpoch)
	buf = comm.AppendOptionalMatrix(buf, st.Reference)
	return buf
}

// DecodeOnlineState decodes what AppendBinary wrote for a controller over
// n threads (one per core), returning the state and the remaining bytes.
// A placement or matrix sized for any other count is rejected before it
// is allocated.
func DecodeOnlineState(data []byte, n int) (OnlineState, []byte, error) {
	var st OnlineState
	if len(data) < 4 {
		return st, nil, fmt.Errorf("mapping: state decode: short buffer")
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); uint64(got) != uint64(n) {
		return st, nil, fmt.Errorf("mapping: state decode: placement for %d cores, want %d", got, n)
	}
	data = data[4:]
	if len(data) < n*4+8*5 {
		return st, nil, fmt.Errorf("mapping: state decode: truncated (%d bytes for %d cores)", len(data), n)
	}
	st.Placement = make([]int, n)
	for i := range st.Placement {
		st.Placement[i] = int(binary.LittleEndian.Uint32(data[:4]))
		data = data[4:]
	}
	st.Remaps = int(binary.LittleEndian.Uint64(data[0:8]))
	st.Fallbacks = int(binary.LittleEndian.Uint64(data[8:16]))
	st.Decisions = int(binary.LittleEndian.Uint64(data[16:24]))
	st.Phases = int(binary.LittleEndian.Uint64(data[24:32]))
	st.Confidence = floatFromBits(binary.LittleEndian.Uint64(data[32:40]))
	data = data[40:]
	var err error
	if st.PrevEpoch, data, err = comm.DecodeOptionalMatrix(data, n); err != nil {
		return st, nil, fmt.Errorf("mapping: state decode: prev epoch: %w", err)
	}
	if st.Reference, data, err = comm.DecodeOptionalMatrix(data, n); err != nil {
		return st, nil, fmt.Errorf("mapping: state decode: tracker reference: %w", err)
	}
	return st, data, nil
}
