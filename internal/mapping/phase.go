package mapping

import (
	"tlbmap/internal/comm"
)

// PhaseTracker implements the dynamic-migration extension sketched in the
// paper's future work (Section VII): it watches successive communication
// matrices sampled during execution and decides when the pattern has
// changed enough that the threads should be remapped.
//
// A change is declared when the Pearson similarity between the new epoch's
// matrix and the matrix that produced the current mapping drops below the
// threshold. Because the TLB forgets stale entries quickly (Section IV-C),
// epoch matrices naturally reflect only recent behaviour, making this
// comparison meaningful.
type PhaseTracker struct {
	threshold float64
	reference *comm.Matrix
	phases    int
}

// NewPhaseTracker returns a tracker that reports a phase change when
// similarity to the reference pattern falls below threshold (a value in
// (0, 1); 0.8 works well for the NPB-style workloads).
func NewPhaseTracker(threshold float64) *PhaseTracker {
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.8
	}
	return &PhaseTracker{threshold: threshold}
}

// Observe feeds the matrix detected during the latest epoch. It returns
// true when the pattern no longer resembles the reference pattern — the
// signal to re-run the mapper. The first observation always returns true
// (there is no mapping yet) and becomes the reference.
func (p *PhaseTracker) Observe(epoch *comm.Matrix) bool {
	if epoch == nil {
		return false
	}
	if p.reference == nil {
		p.reference = epoch.Clone()
		p.phases++
		return true
	}
	if epoch.Total() == 0 {
		// An idle epoch carries no pattern information.
		return false
	}
	sim := p.reference.Similarity(epoch)
	if sim < p.threshold {
		p.reference = epoch.Clone()
		p.phases++
		return true
	}
	return false
}
