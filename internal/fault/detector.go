package fault

import (
	"tlbmap/internal/comm"
	"tlbmap/internal/vm"
)

// WrapDetector arms the detector-side scenarios on d: SampleLoss
// intercepts the SM trap path, ScanDrop discards HM scan windows, and
// MatrixDecay corrupts published matrices. When none of the three is
// armed (or d is nil / the null detector) the detector is returned
// unchanged, so a clean run pays nothing.
func (inj *Injection) WrapDetector(d comm.Detector) comm.Detector {
	if inj == nil || !inj.detectorArmed() || d == nil || d.Matrix() == nil {
		return d
	}
	return &faultyDetector{
		inner:   d,
		inj:     inj,
		dropped: comm.NewMatrix(d.Matrix().N()),
	}
}

// faultyDetector interposes on the detection path. It forwards everything
// to the wrapped detector but (a) drops sampling traps before they reach
// it, (b) subtracts the contribution of dropped scan windows from the
// published matrix, and (c) corrupts published matrix snapshots.
//
// The wrapped detector's own matrix stays untouched and monotone; the
// faults live entirely in the published view, which is what the online
// mapper and the accuracy scoring consume.
type faultyDetector struct {
	inner comm.Detector
	inj   *Injection
	// dropped accumulates the matrix deltas of dropped scan windows;
	// Matrix() subtracts it from the inner matrix.
	dropped *comm.Matrix
	// prev snapshots the inner matrix at the last observed scan, so a
	// scan's delta can be isolated after the fact (a scan cannot be
	// un-run: the decision to drop its result comes after the inner
	// detector already merged it).
	prev *comm.Matrix
}

// Name implements comm.Detector; the inner name is kept so result labels
// (SM/HM) stay stable — fault state is reported via Injection.Stats.
func (d *faultyDetector) Name() string { return d.inner.Name() }

// OnAccess implements comm.Detector.
func (d *faultyDetector) OnAccess(thread int, addr vm.Addr) { d.inner.OnAccess(thread, addr) }

// OnTLBMiss implements comm.Detector: with probability equal to the
// SampleLoss intensity the trap is lost — the inner detector never sees
// the miss, charges no search cost, and its per-core sampling counter
// does not advance.
func (d *faultyDetector) OnTLBMiss(thread int, page vm.Page, tlbs comm.TLBView) uint64 {
	if rng := d.inj.rng[SampleLoss]; rng != nil &&
		rng.Float64() < d.inj.plan.Intensity[SampleLoss] {
		d.inj.stats.LostSamples++
		return 0
	}
	return d.inner.OnTLBMiss(thread, page, tlbs)
}

// MaybeScan implements comm.Detector: the inner scan runs normally (the
// schedule must stay intact so later windows open at the right times),
// but with probability equal to the ScanDrop intensity its result is
// discarded — the window's matrix delta is remembered for subtraction and
// no detection cost is charged (the lost window did no useful work the
// run would account for).
func (d *faultyDetector) MaybeScan(now uint64, tlbs comm.TLBView) uint64 {
	cost := d.inner.MaybeScan(now, tlbs)
	rng := d.inj.rng[ScanDrop]
	if cost == 0 || rng == nil {
		return cost
	}
	cur := d.inner.Matrix()
	if rng.Float64() < d.inj.plan.Intensity[ScanDrop] {
		d.inj.stats.DroppedScans++
		delta := cur.Sub(d.prev)
		for i := 0; i < delta.N(); i++ {
			for j := i + 1; j < delta.N(); j++ {
				d.dropped.Add(i, j, delta.At(i, j))
			}
		}
		cost = 0
	}
	d.prev = cur.Clone()
	return cost
}

// Matrix implements comm.Detector: the published view is the inner matrix
// minus dropped windows, with MatrixDecay corruption applied on top. Each
// call returns a fresh snapshot; the inner matrix is never modified.
func (d *faultyDetector) Matrix() *comm.Matrix {
	base := d.inner.Matrix()
	if base == nil {
		return nil
	}
	out := base.Sub(d.dropped)
	d.corrupt(out)
	return out
}

// corrupt applies MatrixDecay to a published snapshot: a seeded selection
// of cells either loses high-order bits (decay) or saturates at the
// matrix maximum (stuck counter). Corruption is re-rolled per snapshot,
// so successive epochs see different damage — exactly the instability the
// confidence score in internal/mapping is built to catch.
func (d *faultyDetector) corrupt(m *comm.Matrix) {
	rng := d.inj.rng[MatrixDecay]
	if rng == nil {
		return
	}
	n := m.N()
	pairs := n * (n - 1) / 2
	hits := int(d.inj.plan.Intensity[MatrixDecay] * decayPerCell * float64(pairs))
	if hits == 0 && rng.Float64() < d.inj.plan.Intensity[MatrixDecay]*decayPerCell*float64(pairs) {
		hits = 1
	}
	max := m.Max()
	for h := 0; h < hits; h++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		d.inj.stats.CorruptedCells++
		if rng.Intn(2) == 0 {
			m.Set(i, j, m.At(i, j)>>(1+rng.Intn(4))) // decay: drop high bits
		} else {
			m.Set(i, j, max) // saturate: stuck at the hottest cell's value
		}
	}
}
