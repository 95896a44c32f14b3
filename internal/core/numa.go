package core

import (
	"fmt"
	"io"

	"tlbmap/internal/comm"
	"tlbmap/internal/datamap"
	"tlbmap/internal/sim"
	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// MeasureTraceSize runs the workload once while recording the full memory
// trace (the related-work approach of Section II) to a discarded stream and
// returns the record count and encoded byte size. Comparing the trace size
// against the few hundred bytes of a communication matrix reproduces the
// paper's storage argument against trace-based detection.
func MeasureTraceSize(w Workload, opt Options) (records, bytes uint64, err error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	rec := comm.NewTraceRecorder(len(programs), io.Discard)
	if _, _, err = runPrograms(programs, as, opt, simRun{detector: rec, mode: tlb.HardwareManaged}); err != nil {
		return 0, 0, err
	}
	if err = rec.Flush(); err != nil {
		return 0, 0, err
	}
	return rec.Records(), rec.BytesWritten(), nil
}

// DataProfile is the outcome of a page-profiling run: the input of the
// NUMA data-mapping policies.
type DataProfile struct {
	Profile *comm.PageProfile
	Result  *sim.Result
}

// ProfileData runs the workload once on the identity placement and records
// which thread touches which page how often (the page profile that the
// NUMA data-mapping extension consumes). Like detection, this is the
// profiling phase of a profile-then-place pipeline.
func ProfileData(w Workload, opt Options) (*DataProfile, error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	det := comm.NewProfileDetector(len(programs))
	res, _, err := runPrograms(programs, as, opt, simRun{detector: det, mode: tlb.HardwareManaged})
	if err != nil {
		return nil, err
	}
	return &DataProfile{Profile: det.Profile(), Result: res}, nil
}

// EvaluateNUMA runs the workload under a thread placement and a data
// placement (a page -> node assignment from the datamap package) on a NUMA
// machine, with detection switched off. Use it to compare data-mapping
// policies: first-touch vs most-accessed vs interleave.
func EvaluateNUMA(w Workload, placement []int, assignment *datamap.Assignment, opt Options) (*sim.Result, error) {
	opt = opt.withDefaults()
	if opt.Machine.NUMANode(0) < 0 {
		return nil, fmt.Errorf("core: EvaluateNUMA requires a NUMA machine (use topology.NUMA); got %s", opt.Machine.Name)
	}
	as := vm.NewAddressSpace()
	programs := w(as)
	var pageNode func(vm.Page) int
	if assignment != nil {
		pageNode = assignment.Node
	}
	res, _, err := runPrograms(programs, as, opt, simRun{
		placement: placement,
		detector:  comm.NullDetector{},
		mode:      tlb.HardwareManaged,
		pageNode:  pageNode,
	})
	return res, err
}
