package comm

import (
	"tlbmap/internal/vm"
)

// EpochDetector wraps another detector and slices its communication matrix
// into fixed-length time windows ("epochs"). The inner detector keeps
// accumulating as usual; at every epoch boundary the delta since the last
// boundary is snapshotted. This is the observation stream the dynamic
// remapping extension (paper Section VII, mapping.PhaseTracker) consumes:
// per-epoch matrices reveal *when* the communication pattern changes, which
// a whole-run matrix averages away.
type EpochDetector struct {
	inner    Detector
	interval uint64
	lastCut  uint64
	started  bool
	prev     *Matrix
	epochs   []*Matrix
}

// NewEpochDetector wraps inner, cutting an epoch every interval cycles.
func NewEpochDetector(inner Detector, interval uint64) *EpochDetector {
	if interval == 0 {
		interval = 1
	}
	return &EpochDetector{inner: inner, interval: interval}
}

// Name implements Detector.
func (d *EpochDetector) Name() string { return d.inner.Name() + "+epochs" }

// OnAccess implements Detector.
func (d *EpochDetector) OnAccess(thread int, addr vm.Addr) { d.inner.OnAccess(thread, addr) }

// OnTLBMiss implements Detector.
func (d *EpochDetector) OnTLBMiss(thread int, page vm.Page, tlbs TLBView) uint64 {
	return d.inner.OnTLBMiss(thread, page, tlbs)
}

// MaybeScan implements Detector; it also drives the epoch clock, because
// the engine calls it with the monotone global time watermark.
func (d *EpochDetector) MaybeScan(now uint64, tlbs TLBView) uint64 {
	cost := d.inner.MaybeScan(now, tlbs)
	if !d.started {
		d.started = true
		d.lastCut = now
		return cost
	}
	if now-d.lastCut >= d.interval {
		d.cut()
		d.lastCut = now
	}
	return cost
}

// cut snapshots the delta since the previous epoch boundary.
func (d *EpochDetector) cut() {
	cur := d.inner.Matrix()
	if cur == nil {
		return
	}
	delta := cur.Sub(d.prev)
	d.prev = cur.Clone()
	d.epochs = append(d.epochs, delta)
}

// Flush closes the current (possibly partial) epoch; call it after the run
// completes so the tail of the execution is not lost.
func (d *EpochDetector) Flush() {
	d.cut()
}

// Epochs returns the per-epoch communication matrices recorded so far, in
// time order.
func (d *EpochDetector) Epochs() []*Matrix { return d.epochs }

// Matrix implements Detector: the whole-run matrix of the inner detector.
func (d *EpochDetector) Matrix() *Matrix { return d.inner.Matrix() }

// Inner returns the wrapped detector.
func (d *EpochDetector) Inner() Detector { return d.inner }
