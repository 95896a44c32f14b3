package mapping

import (
	"math/rand"
	"strings"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// noiseEpochs builds a deterministic sequence of mutually-uncorrelated
// heavy matrices — what fault-polluted detection looks like: every epoch
// reports a different "pattern", each one strong enough to clear the gain
// hysteresis if the controller were naive enough to chase it.
func noiseEpochs(seed int64, count int) []*comm.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*comm.Matrix, count)
	for e := range out {
		m := comm.NewMatrix(8)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				m.Set(i, j, uint64(rng.Intn(1_000_000)))
			}
		}
		out[e] = m
	}
	return out
}

func feedNoise(t *testing.T, o *OnlineMapper, seed int64, count int) []OnlineDecision {
	t.Helper()
	decs := make([]OnlineDecision, 0, count)
	for _, m := range noiseEpochs(seed, count) {
		dec, err := o.Observe(m)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, dec)
	}
	return decs
}

// Uncorrelated epochs must drain confidence below the gate within a few
// epochs and then freeze the controller: once the gate engages, no more
// remaps, placement held, reason saying why. (The EWMA needs a couple of
// epochs of evidence, so the very first noise epochs may still remap —
// the property under test is that the chasing *stops*.)
func TestLowConfidenceHoldsPlacement(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	if _, err := o.Observe(heavyDistant()); err != nil {
		t.Fatal(err)
	}
	decs := feedNoise(t, o, 7, 10)
	gated := -1
	for i, dec := range decs {
		if strings.Contains(dec.Reason, "low confidence") {
			gated = i
			break
		}
	}
	if gated == -1 {
		t.Fatalf("gate never engaged over 10 noise epochs (final confidence %.3f)", o.Confidence())
	}
	if gated > 4 {
		t.Errorf("gate took %d epochs to engage, want a few", gated+1)
	}
	frozen := decs[gated].Placement
	for i, dec := range decs[gated:] {
		if dec.Remap {
			t.Errorf("remap on noise epoch %d after the gate engaged: %+v", gated+i, dec)
		}
		if !strings.Contains(dec.Reason, "low confidence") {
			t.Errorf("epoch %d reason = %q, want a low-confidence hold", gated+i, dec.Reason)
		}
		if dec.Confidence >= o.minConfidence {
			t.Errorf("epoch %d confidence %.3f not below gate", gated+i, dec.Confidence)
		}
	}
	if countMigrations(frozen, o.Placement()) != 0 {
		t.Error("placement drifted after the gate engaged")
	}
}

// With a Fallback configured, draining confidence must adopt it exactly
// once, then hold.
func TestLowConfidenceFallsBackToBaseline(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	identity := make([]int, 8)
	for i := range identity {
		identity[i] = i
	}
	o.Fallback = identity
	if _, err := o.Observe(heavyDistant()); err != nil {
		t.Fatal(err)
	}
	if countMigrations(o.Placement(), identity) == 0 {
		t.Fatal("initial remap did not move anything; test premise broken")
	}
	decs := feedNoise(t, o, 11, 12)
	var adoptions int
	for _, dec := range decs {
		if dec.Remap && strings.Contains(dec.Reason, "fallback") {
			adoptions++
		}
	}
	if adoptions != 1 {
		t.Errorf("fallback adopted %d times, want exactly 1 (then hold)", adoptions)
	}
	if o.Fallbacks() != 1 {
		t.Errorf("Fallbacks() = %d", o.Fallbacks())
	}
	if countMigrations(o.Placement(), identity) != 0 {
		t.Errorf("final placement %v is not the fallback", o.Placement())
	}
}

// Once the pattern stabilizes again, the EWMA must recover and the
// controller must resume remapping.
func TestConfidenceRecoversAfterNoise(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	feedNoise(t, o, 13, 10)
	if o.Confidence() >= o.minConfidence {
		t.Fatalf("noise did not drain confidence: %.3f", o.Confidence())
	}
	// A stable strong pattern: each epoch is identical, similarity 1.
	var remapped bool
	for i := 0; i < 6; i++ {
		dec, err := o.Observe(heavyDistant())
		if err != nil {
			t.Fatal(err)
		}
		remapped = remapped || dec.Remap
	}
	if o.Confidence() < o.minConfidence {
		t.Errorf("confidence stuck at %.3f after 6 stable epochs", o.Confidence())
	}
	if !remapped {
		t.Error("controller never resumed remapping after recovery")
	}
}

// minConfidence = 0 disables the gate entirely.
func TestConfidenceGateDisabled(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	o.minConfidence = 0
	for _, dec := range feedNoise(t, o, 17, 10) {
		if strings.Contains(dec.Reason, "low confidence") {
			t.Fatalf("gate fired while disabled: %+v", dec)
		}
	}
}

// Confidence must stay within [0, 1], start at 1, and ride along on every
// decision.
func TestConfidenceBounds(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	if o.Confidence() != 1 {
		t.Errorf("initial confidence = %.3f, want 1", o.Confidence())
	}
	dec, err := o.Observe(heavyDistant())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Confidence != 1 {
		t.Errorf("single-epoch confidence = %.3f, want 1 (no pair to compare yet)", dec.Confidence)
	}
	for _, d := range feedNoise(t, o, 19, 20) {
		if d.Confidence < 0 || d.Confidence > 1 {
			t.Fatalf("confidence %.3f out of [0,1]", d.Confidence)
		}
	}
}

// Idle epochs must not touch the confidence score (no information either
// way).
func TestIdleEpochsDoNotMoveConfidence(t *testing.T) {
	o := NewOnlineMapper(topology.Harpertown(), 0.8)
	feedNoise(t, o, 23, 6)
	before := o.Confidence()
	for i := 0; i < 5; i++ {
		if _, err := o.Observe(comm.NewMatrix(8)); err != nil {
			t.Fatal(err)
		}
	}
	if o.Confidence() != before {
		t.Errorf("idle epochs moved confidence %.3f -> %.3f", before, o.Confidence())
	}
}
