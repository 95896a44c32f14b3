package mapping

import (
	"fmt"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// DefaultMinGain is the default remap hysteresis: the reduction of the
// mapping cost function (communication units × interconnect cycles) one
// epoch must promise before the controller issues a remap. Detected
// communication units are samples, not raw coherence events, so this
// threshold is expressed in the matrix's own unit-cycles; tune it to the
// detector and epoch length in use.
const DefaultMinGain = 2_000

// DefaultMinConfidence is the default graceful-degradation gate: when the
// controller's confidence in the detected pattern falls below it, remaps
// are suspended (see OnlineMapper.minConfidence). 0.5 is chosen so a
// single legitimate phase change (one epoch of zero similarity folded
// into a confident history: 0.5·0 + 0.5·1 = 0.5) still passes the strict
// < gate, while sustained noise — whose epoch-to-epoch similarity
// fluctuates around zero — drains confidence well below it.
const DefaultMinConfidence = 0.5

// confidenceAlpha is the EWMA weight of the newest epoch-to-epoch
// similarity sample in the confidence score: with 0.5, one clean epoch
// after a noisy stretch recovers half the lost confidence, so the
// controller neither flaps on a single bad window nor stays timid after
// the noise has passed.
const confidenceAlpha = 0.5

// OnlineDecision describes what the controller chose to do after an epoch.
type OnlineDecision struct {
	// Remap is true when the controller issued a new placement.
	Remap bool
	// Placement is the placement in force after the decision.
	Placement []int
	// Migrations is the number of threads that had to move.
	Migrations int
	// Reason explains the decision ("phase change", "insufficient gain",
	// "pattern stable", "warmup", "low confidence: ...").
	Reason string
	// PredictedGain is the reduction of the mapping cost function the new
	// placement achieves on the epoch matrix (0 when not remapping).
	PredictedGain uint64
	// Confidence is the controller's pattern-stability score in [0, 1]
	// after folding in this epoch (1 until two non-idle epochs exist).
	Confidence float64
}

// OnlineMapper is the dynamic-migration controller of the paper's future
// work (Section VII): it consumes per-epoch communication matrices (the
// Matrix.Sub delta of a live detector's matrix at each sim.Config.Migrator
// poll, as core.EvaluateWithDynamicMigration cuts them), detects phase
// changes, and issues
// remaps only when the predicted communication-cost saving exceeds the
// migration cost — the hysteresis that keeps a naive remapper from
// thrashing.
type OnlineMapper struct {
	// minGain is the remap hysteresis in mapping-cost units:
	// NewOnlineMapper sets DefaultMinGain, and only this package's tests
	// lower it, to remap eagerly.
	minGain uint64
	// minConfidence is the graceful-degradation gate: the controller
	// keeps an EWMA of the Pearson similarity between consecutive
	// non-idle epoch matrices (its "confidence" that the detected
	// pattern is signal, not noise). Below this gate it stops trusting
	// the matrix — it holds the current placement, or adopts Fallback —
	// instead of thrashing on a pattern that changes every epoch, which
	// is exactly what fault-polluted detection looks like.
	// NewOnlineMapper sets DefaultMinConfidence; 0 disables the gate,
	// which only this package's tests do.
	minConfidence float64
	// Fallback, when non-nil, is the placement adopted while confidence
	// is below the gate — typically the OS-scheduler baseline placement,
	// making "detector too noisy to use" degrade to "what the system
	// would do without detection" rather than to an arbitrary stale map.
	Fallback []int

	machine    *topology.Machine
	mapper     Algorithm
	tracker    *PhaseTracker
	placement  []int
	remaps     int
	decisions  int
	fallbacks  int
	confidence float64
	prevEpoch  *comm.Matrix
}

// NewOnlineMapper builds a controller for the machine using the
// size-dispatching Auto mapper (the paper's Edmonds hierarchy on small
// machines, multilevel on manycore ones) and a phase-change threshold
// (0 selects the default).
func NewOnlineMapper(machine *topology.Machine, threshold float64) *OnlineMapper {
	n := machine.NumCores()
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	return &OnlineMapper{
		minGain:       DefaultMinGain,
		minConfidence: DefaultMinConfidence,
		machine:       machine,
		mapper:        NewAuto(),
		tracker:       NewPhaseTracker(threshold),
		placement:     identity,
		confidence:    1,
	}
}

// SetAlgorithm replaces the mapper consulted on each remap decision
// (the size-dispatching Auto by default). serve's deadline and quarantine
// tests install slow and panicking mappers through it.
func (o *OnlineMapper) SetAlgorithm(a Algorithm) { o.mapper = a }

// Decisions returns how many epochs the controller has evaluated
// (including idle and held ones).
func (o *OnlineMapper) Decisions() int { return o.decisions }

// Placement returns the placement currently in force.
func (o *OnlineMapper) Placement() []int {
	return append([]int(nil), o.placement...)
}

// Remaps returns how many gain-driven remaps the controller has issued
// (fallback adoptions are counted separately by Fallbacks).
func (o *OnlineMapper) Remaps() int { return o.remaps }

// Fallbacks returns how many times low confidence made the controller
// adopt the Fallback placement.
func (o *OnlineMapper) Fallbacks() int { return o.fallbacks }

// Confidence returns the current pattern-stability score in [0, 1].
func (o *OnlineMapper) Confidence() float64 { return o.confidence }

// observeConfidence folds one non-idle epoch into the confidence EWMA:
// the sample is the Pearson similarity between this epoch's matrix and
// the previous one, clamped at 0 (anti-correlation is as untrustworthy as
// no correlation). Before two epochs exist, confidence stays at 1.
func (o *OnlineMapper) observeConfidence(epoch *comm.Matrix) {
	if o.prevEpoch != nil {
		s := o.prevEpoch.Similarity(epoch)
		if s < 0 {
			s = 0
		}
		o.confidence = confidenceAlpha*s + (1-confidenceAlpha)*o.confidence
	}
	o.prevEpoch = epoch.Clone()
}

// Observe feeds one epoch's communication matrix and returns the decision.
// Every non-idle epoch is evaluated against the current placement — even
// when the pattern is stable — so a remap declined earlier (e.g. the epoch
// was too short to justify it) is reconsidered while the opportunity
// persists.
func (o *OnlineMapper) Observe(epoch *comm.Matrix) (OnlineDecision, error) {
	o.decisions++
	keep := OnlineDecision{Placement: o.Placement(), Confidence: o.confidence}
	if epoch == nil || epoch.Total() == 0 {
		keep.Reason = "idle epoch"
		return keep, nil
	}
	o.observeConfidence(epoch)
	keep.Confidence = o.confidence

	// Graceful degradation: below the confidence gate the epoch matrix
	// is treated as noise. Adopt the fallback placement if one is
	// configured and not already in force; otherwise hold still.
	if o.minConfidence > 0 && o.confidence < o.minConfidence {
		if o.Fallback != nil && countMigrations(o.placement, o.Fallback) > 0 {
			migrations := countMigrations(o.placement, o.Fallback)
			o.placement = append([]int(nil), o.Fallback...)
			o.fallbacks++
			return OnlineDecision{
				Remap:      true,
				Placement:  o.Placement(),
				Migrations: migrations,
				Reason:     "low confidence: fallback to baseline placement",
				Confidence: o.confidence,
			}, nil
		}
		keep.Reason = "low confidence: holding placement"
		return keep, nil
	}

	changed := o.tracker.Observe(epoch)
	candidate, err := o.mapper.Map(epoch, o.machine)
	if err != nil {
		return keep, fmt.Errorf("mapping: online remap: %w", err)
	}
	oldCost := Cost(epoch, o.machine, o.placement)
	newCost := Cost(epoch, o.machine, candidate)
	if newCost >= oldCost {
		if changed {
			keep.Reason = "current placement already optimal for new phase"
		} else {
			keep.Reason = "pattern stable"
		}
		return keep, nil
	}
	gain := oldCost - newCost
	if gain < o.minGain {
		keep.Reason = "insufficient gain"
		return keep, nil
	}
	migrations := countMigrations(o.placement, candidate)
	o.placement = candidate
	o.remaps++
	reason := "accumulated gain"
	if changed {
		reason = "phase change"
	}
	return OnlineDecision{
		Remap:         true,
		Placement:     o.Placement(),
		Migrations:    migrations,
		Reason:        reason,
		PredictedGain: gain,
		Confidence:    o.confidence,
	}, nil
}

func countMigrations(old, new []int) int {
	n := 0
	for i := range old {
		if old[i] != new[i] {
			n++
		}
	}
	return n
}
