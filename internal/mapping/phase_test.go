package mapping

import (
	"testing"

	"tlbmap/internal/comm"
)

func chain8() *comm.Matrix {
	m := comm.NewMatrix(8)
	for i := 0; i+1 < 8; i++ {
		m.Add(i, i+1, 50)
	}
	return m
}

func distant8() *comm.Matrix {
	m := comm.NewMatrix(8)
	for i := 0; i < 4; i++ {
		m.Add(i, i+4, 50)
	}
	return m
}

func TestPhaseTrackerFirstObservationIsAPhase(t *testing.T) {
	p := NewPhaseTracker(0.8)
	if !p.Observe(chain8()) {
		t.Error("first observation must trigger a mapping")
	}
	if p.Phases() != 1 {
		t.Errorf("phases = %d", p.Phases())
	}
	if p.Reference() == nil {
		t.Error("reference not recorded")
	}
}

func TestPhaseTrackerStablePattern(t *testing.T) {
	p := NewPhaseTracker(0.8)
	p.Observe(chain8())
	// A scaled version of the same pattern is the same phase.
	scaled := comm.NewMatrix(8)
	for i := 0; i+1 < 8; i++ {
		scaled.Add(i, i+1, 500)
	}
	if p.Observe(scaled) {
		t.Error("scaled identical pattern reported as a phase change")
	}
	if p.Phases() != 1 {
		t.Errorf("phases = %d", p.Phases())
	}
}

func TestPhaseTrackerDetectsChange(t *testing.T) {
	p := NewPhaseTracker(0.8)
	p.Observe(chain8())
	if !p.Observe(distant8()) {
		t.Error("pattern change not detected")
	}
	if p.Phases() != 2 {
		t.Errorf("phases = %d", p.Phases())
	}
	// The reference moved to the new pattern.
	if p.Observe(distant8()) {
		t.Error("new reference not adopted")
	}
}

func TestPhaseTrackerIgnoresIdleAndNil(t *testing.T) {
	p := NewPhaseTracker(0.8)
	p.Observe(chain8())
	if p.Observe(comm.NewMatrix(8)) {
		t.Error("idle epoch triggered a remap")
	}
	if p.Observe(nil) {
		t.Error("nil epoch triggered a remap")
	}
}

func TestPhaseTrackerClampsBadThreshold(t *testing.T) {
	for _, th := range []float64{-1, 0, 1, 2} {
		p := NewPhaseTracker(th)
		p.Observe(chain8())
		if p.Observe(chain8()) {
			t.Errorf("threshold %v misbehaves on identical patterns", th)
		}
	}
}

func TestPhaseTrackerReferenceIsCopy(t *testing.T) {
	p := NewPhaseTracker(0.8)
	p.Observe(chain8())
	ref := p.Reference()
	ref.Add(0, 7, 1_000_000)
	if p.Observe(chain8()) {
		t.Error("mutating the returned reference changed the tracker")
	}
	if NewPhaseTracker(0.8).Reference() != nil {
		t.Error("reference before first observation should be nil")
	}
}

// Phases returns how many distinct phases have been observed (including the
// initial one).
func (p *PhaseTracker) Phases() int { return p.phases }

// Reference returns a copy of the pattern the current mapping is based on,
// or nil before the first observation.
func (p *PhaseTracker) Reference() *comm.Matrix {
	if p.reference == nil {
		return nil
	}
	return p.reference.Clone()
}
