package comm

import (
	"tlbmap/internal/vm"
)

// MultiDetector fans the engine hooks out to several detectors so that one
// simulated run produces the SM, HM and oracle matrices simultaneously
// (they are all read-only observers of the same execution). The cycle costs
// of the children are summed, so use it only when comparing detected
// patterns, not when measuring per-mechanism overhead.
type MultiDetector struct {
	children []Detector
}

// NewMultiDetector wraps the given detectors.
func NewMultiDetector(children ...Detector) *MultiDetector {
	return &MultiDetector{children: children}
}

// Name implements Detector.
func (m *MultiDetector) Name() string { return "multi" }

// OnAccess implements Detector.
func (m *MultiDetector) OnAccess(thread int, addr vm.Addr) {
	for _, d := range m.children {
		d.OnAccess(thread, addr)
	}
}

// OnTLBMiss implements Detector.
func (m *MultiDetector) OnTLBMiss(thread int, page vm.Page, tlbs TLBView) uint64 {
	var cycles uint64
	for _, d := range m.children {
		cycles += d.OnTLBMiss(thread, page, tlbs)
	}
	return cycles
}

// MaybeScan implements Detector.
func (m *MultiDetector) MaybeScan(now uint64, tlbs TLBView) uint64 {
	var cycles uint64
	for _, d := range m.children {
		cycles += d.MaybeScan(now, tlbs)
	}
	return cycles
}

// Matrix implements Detector, returning the first child's matrix.
func (m *MultiDetector) Matrix() *Matrix {
	if len(m.children) == 0 {
		return nil
	}
	return m.children[0].Matrix()
}
