package mapping

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// epochFor synthesizes a non-idle epoch matrix with a neighbor-pair
// pattern plus seeded noise, shifted by phase so consecutive epochs look
// alike within a phase and different across phases.
func epochFor(n, phase int, rng *rand.Rand) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i+1 < n; i += 2 {
		a := (i + phase) % n
		b := (i + 1 + phase) % n
		m.Add(a, b, uint64(500+rng.Intn(50)))
	}
	for k := 0; k < n; k++ {
		m.Add(rng.Intn(n), rng.Intn(n), uint64(1+rng.Intn(5)))
	}
	return m
}

func TestOnlineStateRoundTrip(t *testing.T) {
	machine := topology.Manycore(32)
	o := NewOnlineMapper(machine, 0)
	rng := rand.New(rand.NewSource(5))
	for e := 0; e < 8; e++ {
		if _, err := o.Observe(epochFor(32, e/4, rng)); err != nil {
			t.Fatal(err)
		}
	}
	st := o.State()
	enc := st.AppendBinary(nil)
	got, rest, err := DecodeOnlineState(enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(got.Placement, st.Placement) {
		t.Fatalf("placement changed: %v -> %v", st.Placement, got.Placement)
	}
	if got.Remaps != st.Remaps || got.Fallbacks != st.Fallbacks ||
		got.Decisions != st.Decisions || got.Phases != st.Phases {
		t.Fatalf("counters changed: %+v vs %+v", got, st)
	}
	if got.Confidence != st.Confidence {
		t.Fatalf("confidence changed: %v -> %v", st.Confidence, got.Confidence)
	}
	if (got.PrevEpoch == nil) != (st.PrevEpoch == nil) ||
		(got.PrevEpoch != nil && !got.PrevEpoch.Equal(st.PrevEpoch)) {
		t.Fatal("prev-epoch matrix changed")
	}
	if (got.Reference == nil) != (st.Reference == nil) ||
		(got.Reference != nil && !got.Reference.Equal(st.Reference)) {
		t.Fatal("tracker reference changed")
	}
	// Deterministic: re-encoding the decoded state is byte-identical.
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Fatal("re-encoding differs")
	}
}

// TestOnlineStateContinuation: restore a snapshotted controller into a
// fresh OnlineMapper and feed both the same remaining epochs — every
// subsequent decision must be identical, including remap/hold choices,
// placements, reasons, and confidence.
func TestOnlineStateContinuation(t *testing.T) {
	machine := topology.Manycore(32)
	cont := NewOnlineMapper(machine, 0)
	rng := rand.New(rand.NewSource(77))
	epochs := make([]*comm.Matrix, 24)
	for e := range epochs {
		epochs[e] = epochFor(32, e/6, rng) // phase change every 6 epochs
	}
	cut := 10
	for _, m := range epochs[:cut] {
		if _, err := cont.Observe(m); err != nil {
			t.Fatal(err)
		}
	}

	st := cont.State()
	enc := st.AppendBinary(nil)
	decoded, _, err := DecodeOnlineState(enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewOnlineMapper(machine, 0)
	if err := restored.Restore(decoded); err != nil {
		t.Fatal(err)
	}

	for e, m := range epochs[cut:] {
		dc, err1 := cont.Observe(m)
		dr, err2 := restored.Observe(m)
		if err1 != nil || err2 != nil {
			t.Fatalf("epoch %d: errs %v / %v", cut+e, err1, err2)
		}
		if !reflect.DeepEqual(dc, dr) {
			t.Fatalf("epoch %d: decisions diverged:\n continuous: %+v\n restored:   %+v", cut+e, dc, dr)
		}
	}
	if cont.Remaps() != restored.Remaps() || cont.Decisions() != restored.Decisions() ||
		cont.Confidence() != restored.Confidence() {
		t.Fatalf("final counters diverged: %d/%d/%v vs %d/%d/%v",
			cont.Remaps(), cont.Decisions(), cont.Confidence(),
			restored.Remaps(), restored.Decisions(), restored.Confidence())
	}
}

func TestOnlineStateRestoreRejectsWrongMachine(t *testing.T) {
	small := NewOnlineMapper(topology.Manycore(32), 0)
	st := small.State()
	big := NewOnlineMapper(topology.Manycore(64), 0)
	if err := big.Restore(st); err == nil {
		t.Fatal("restore accepted a 32-core placement on a 64-core machine")
	}
	// The failed restore must leave the controller untouched.
	if len(big.Placement()) != 64 {
		t.Fatal("failed restore mutated the controller")
	}
}

func TestOnlineStateDecodeRejectsDamage(t *testing.T) {
	o := NewOnlineMapper(topology.Manycore(32), 0)
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 4; e++ {
		if _, err := o.Observe(epochFor(32, 0, rng)); err != nil {
			t.Fatal(err)
		}
	}
	enc := o.State().AppendBinary(nil)
	for _, cut := range []int{0, 3, 20, len(enc) - 1} {
		if _, _, err := DecodeOnlineState(enc[:cut], 32); err == nil {
			t.Errorf("decode accepted truncation at %d bytes", cut)
		}
	}
	// A state for another core count is rejected, whatever its size.
	if _, _, err := DecodeOnlineState(enc, 64); err == nil {
		t.Error("decode accepted a 32-core state for 64 cores")
	}
	huge := binary.LittleEndian.AppendUint32(nil, 1<<24)
	if _, _, err := DecodeOnlineState(append(huge, enc[4:]...), 32); err == nil {
		t.Error("decode accepted a 1<<24-core placement header")
	}
}
