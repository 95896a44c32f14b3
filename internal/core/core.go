// Package core is the public façade of the library: it wires the workload
// layer, the simulator, the TLB-based detectors and the hierarchical mapper
// into the three-step pipeline the paper evaluates:
//
//  1. Detect — run the application under a detection mechanism (SM, HM or
//     the full-trace oracle) and obtain its communication matrix
//     (Figures 4/5, Table III).
//  2. BuildMapping — turn the matrix into a thread -> core placement with
//     the Edmonds-matching hierarchical mapper (Section V-A).
//  3. Evaluate — run the application under that placement and measure
//     execution time, invalidations, snoop transactions and L2 misses
//     (Figures 6-9, Tables IV/V).
//
// Every function is safe for concurrent use: each run builds its own
// address space, thread team, caches, TLBs and detectors, and the shared
// inputs (topology presets, benchmark registries, detected matrices) are
// read-only after construction. internal/runner exploits this to fan
// independent (benchmark, repetition) jobs out over a worker pool; an
// Evaluator belongs to one job.
package core

import (
	"fmt"
	"slices"

	"tlbmap/internal/check"
	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/mapping"
	"tlbmap/internal/metrics"
	"tlbmap/internal/sim"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// Workload builds the per-thread programs of an application, allocating its
// data in the supplied address space. Calling a Workload twice must produce
// an equivalent fresh instance (workloads are re-instantiated for every
// simulated run).
type Workload func(as *vm.AddressSpace) []trace.Program

// Mechanism selects a communication-detection mechanism.
type Mechanism string

// The detection mechanisms of the paper plus the two oracle granularities.
const (
	// SM is the software-managed TLB mechanism (Figure 1a).
	SM Mechanism = "SM"
	// HM is the hardware-managed TLB mechanism (Figure 1b).
	HM Mechanism = "HM"
	// Oracle is the full-memory-trace reference at page granularity.
	Oracle Mechanism = "oracle"
	// OracleLine is the full-trace reference at cache-line granularity,
	// for quantifying page-level false sharing.
	OracleLine Mechanism = "oracle-line"
)

// DefaultSampleEvery is the SM sampling period n when Options.SampleEvery
// is 0. The paper uses n = 100 (search on 1% of misses) on full-length NPB
// runs with millions of TLB misses; the simulated kernels here are about
// four orders of magnitude shorter, so the default is n = 10 to keep the
// number of searches per run statistically comparable.
const DefaultSampleEvery = 10

// DefaultScanInterval is the HM scan period in simulated cycles when
// Options.ScanInterval is 0. The paper uses 10M cycles on
// multi-billion-cycle runs; 100k cycles keeps the same scan-per-run-length
// ratio for the shorter simulated kernels.
const DefaultScanInterval = 100_000

// Options configures a pipeline run. The zero value reproduces the paper's
// setup: a two-socket Harpertown machine, Table II caches, a 64-entry 4-way
// TLB, SM sampling every DefaultSampleEvery-th miss, and a scaled HM scan
// interval.
type Options struct {
	// Machine is the hardware topology; nil selects topology.Harpertown.
	Machine *topology.Machine
	// TLB geometry; the zero value selects 64 entries, 4-way.
	TLB tlb.Config
	// SampleEvery is the SM sampling period n (0 selects
	// DefaultSampleEvery). Set 100 to reproduce the paper's exact
	// configuration, or 1 to monitor every miss (which the paper also
	// evaluates).
	SampleEvery uint64
	// ScanInterval is the HM scan period in simulated cycles (0 selects
	// DefaultScanInterval).
	ScanInterval uint64
	// JitterSeed enables run-to-run noise (see sim.Config); 0 disables.
	JitterSeed int64
	// MigrationInterval is the dynamic-migration epoch length in cycles
	// for EvaluateWithDynamicMigration (0 selects the engine default of
	// 500k cycles).
	MigrationInterval uint64
	// Check arms the internal/check invariant suite for the run: the
	// sequential memory oracle, the MESI legality checker, the TLB/page
	// table consistency checker and the counter-conservation checker. A
	// violation surfaces as an error from the run. Roughly doubles the
	// cost of a run; meant for validation, not for experiments.
	Check bool
	// Faults arms the fault-injection layer (internal/fault) on the run:
	// the named scenarios perturb the TLB/detection path at the plan's
	// intensities and seed. The empty plan (the default) arms nothing
	// and costs nothing.
	Faults fault.Plan
	// Interrupt, when non-nil, is polled by the engine; closing it
	// cancels an in-flight run with sim.ErrInterrupted. The CLIs wire
	// Ctrl-C here; the hardened runner wires per-job timeouts.
	Interrupt <-chan struct{}
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = topology.Harpertown()
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	if o.ScanInterval == 0 {
		o.ScanInterval = DefaultScanInterval
	}
	return o
}

// Detection is the outcome of a detection run.
type Detection struct {
	Mechanism Mechanism
	// Matrix is the detected communication matrix, indexed by thread.
	Matrix *comm.Matrix
	// Result is the full simulation result of the detection run,
	// including the mechanism's overhead accounting.
	Result *sim.Result
	// SampledFraction is the fraction of TLB misses that triggered an SM
	// search (0 for other mechanisms) — Table III column 2.
	SampledFraction float64
	// FaultStats counts the injections performed when Options.Faults was
	// armed (zero otherwise).
	FaultStats fault.Stats
}

// newDetector instantiates the detector for a mechanism.
func newDetector(m Mechanism, threads int, o Options) (comm.Detector, error) {
	switch m {
	case SM:
		return comm.NewSMDetector(threads, o.SampleEvery), nil
	case HM:
		return comm.NewHMDetector(threads, o.ScanInterval), nil
	case Oracle:
		return comm.NewOracleDetector(threads, comm.PageGranularity), nil
	case OracleLine:
		return comm.NewOracleDetector(threads, comm.LineGranularity), nil
	default:
		return nil, fmt.Errorf("core: unknown mechanism %q", m)
	}
}

// tlbModeFor returns the TLB management type a mechanism runs on: SM
// requires software-managed TLBs; everything else models the
// hardware-managed x86-style machine of the evaluation.
func tlbModeFor(m Mechanism) tlb.Management {
	if m == SM {
		return tlb.SoftwareManaged
	}
	return tlb.HardwareManaged
}

// Detect runs the workload once with the chosen detection mechanism on the
// identity placement (thread i on core i, as during the paper's simulated
// detection phase) and returns the detected communication matrix.
func Detect(w Workload, m Mechanism, opt Options) (*Detection, error) {
	return EvaluateWithDetection(w, nil, m, opt)
}

// DetectAll runs the workload once with SM, HM and the page-granularity
// oracle observing simultaneously, returning the three matrices from a
// single execution (cheapest way to compare pattern accuracy).
func DetectAll(w Workload, opt Options) (sm, hm, oracle *Detection, err error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	n := len(programs)
	smd := comm.NewSMDetector(n, opt.SampleEvery)
	hmd := comm.NewHMDetector(n, opt.ScanInterval)
	ord := comm.NewOracleDetector(n, comm.PageGranularity)
	multi := comm.NewMultiDetector(smd, hmd, ord)
	// Run on software-managed TLBs so the SM detector sees every miss.
	// Faults armed here perturb the shared trap/timing path (shootdowns,
	// lost samples, preemption); the matrix-publication faults only apply
	// to published views, and DetectAll reads the children directly.
	res, fstats, err := runPrograms(programs, as, opt, simRun{detector: multi, mode: tlb.SoftwareManaged})
	if err != nil {
		return nil, nil, nil, err
	}
	sm = &Detection{Mechanism: SM, Matrix: smd.Matrix(), Result: res, SampledFraction: smd.SampledFraction(), FaultStats: fstats}
	hm = &Detection{Mechanism: HM, Matrix: hmd.Matrix(), Result: res, FaultStats: fstats}
	oracle = &Detection{Mechanism: Oracle, Matrix: ord.Matrix(), Result: res, FaultStats: fstats}
	return sm, hm, oracle, nil
}

// BuildMapping turns a communication matrix into a placement: the paper's
// hierarchical Edmonds mapper up to mapping.DefaultAutoThreshold threads,
// the near-linear multilevel mapper beyond it.
func BuildMapping(m *comm.Matrix, machine *topology.Machine) ([]int, error) {
	if machine == nil {
		machine = topology.Harpertown()
	}
	return mapping.NewAuto().Map(m, machine)
}

// Evaluate runs the workload under the given placement with detection
// switched off (the performance runs of Section VI-B) and returns the full
// simulation result. A nil placement selects the identity.
func Evaluate(w Workload, placement []int, opt Options) (*sim.Result, error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	res, _, err := runPrograms(programs, as, opt, simRun{placement: placement, detector: comm.NullDetector{}, mode: tlb.HardwareManaged})
	return res, err
}

// RunMetrics is the compact per-run summary the experiment tables
// aggregate: total cycles plus the three coherence counters the paper
// measures with hardware performance counters (Figures 6-9, Tables IV/V).
// It is the payload of one (benchmark, placement, repetition) job in the
// parallel experiment runner.
type RunMetrics struct {
	Cycles        uint64
	Invalidations uint64
	Snoops        uint64
	L2Misses      uint64
	// InterChip counts coherence transactions that crossed the chip
	// boundary — the traffic the mapping shifts onto shared caches.
	InterChip uint64
}

// EvaluateMetrics runs Evaluate and condenses the result into RunMetrics.
func EvaluateMetrics(w Workload, placement []int, opt Options) (RunMetrics, error) {
	res, err := Evaluate(w, placement, opt)
	if err != nil {
		return RunMetrics{}, err
	}
	return RunMetrics{
		Cycles:        res.Cycles,
		Invalidations: res.Counters.Get(metrics.Invalidations),
		Snoops:        res.Counters.Get(metrics.SnoopTransactions),
		L2Misses:      res.Counters.Get(metrics.L2Misses),
		InterChip:     res.Counters.Get(metrics.InterChipTraffic),
	}, nil
}

// Evaluator evaluates one workload under several placements, simulating
// each distinct (placement, Options) pair once.
//
// A run is a deterministic function of the workload, the placement and the
// options: the workload builds an equivalent fresh instance on every call,
// and the engine draws its only randomness from seeds in Options
// (sim.Config.JitterSeed, fault.Plan.Seed). A repeated pair therefore
// reproduces the first run bit for bit, and the Evaluator returns that
// run's RunMetrics instead of simulating it again. In the paper's
// evaluation the SM- and HM-derived mappings usually coincide, so this
// skips most HM runs. Options are compared with ==, so a non-comparable
// field added to Options breaks this file's build and flags the contract.
//
// Failed runs are not remembered: the next call with the same pair
// simulates again. An Evaluator keeps a copy of each placement and is not
// safe for concurrent use.
type Evaluator struct {
	w    Workload
	runs []evaluatedRun
}

// evaluatedRun is one remembered simulation of an Evaluator.
type evaluatedRun struct {
	placement []int
	opt       Options
	metrics   RunMetrics
}

// NewEvaluator returns an Evaluator for w.
func NewEvaluator(w Workload) *Evaluator { return &Evaluator{w: w} }

// EvaluateMetrics returns EvaluateMetrics(w, placement, opt), simulating
// only when this Evaluator has not yet run the pair. A nil placement (the
// identity) and a non-nil one are distinct pairs.
func (e *Evaluator) EvaluateMetrics(placement []int, opt Options) (RunMetrics, error) {
	for _, r := range e.runs {
		if r.opt == opt && (r.placement == nil) == (placement == nil) && slices.Equal(r.placement, placement) {
			return r.metrics, nil
		}
	}
	m, err := EvaluateMetrics(e.w, placement, opt)
	if err != nil {
		return RunMetrics{}, err
	}
	e.runs = append(e.runs, evaluatedRun{placement: slices.Clone(placement), opt: opt, metrics: m})
	return m, nil
}

// CompiledWorkload is the Evaluator's former name.
//
// Deprecated: use Evaluator. ROADMAP item 2 deletes this alias.
type CompiledWorkload = Evaluator

// CompileWorkload returns NewEvaluator(w); opt is unused.
//
// Deprecated: use NewEvaluator. ROADMAP item 2 deletes this alias.
func CompileWorkload(w Workload, opt Options) *CompiledWorkload { return NewEvaluator(w) }

// EvaluateWithDetection runs the workload under a placement with a live
// detection mechanism — the configuration for measuring the mechanism's
// overhead (Table III) and for the dynamic-remapping extension.
func EvaluateWithDetection(w Workload, placement []int, m Mechanism, opt Options) (*Detection, error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	det, err := newDetector(m, len(programs), opt)
	if err != nil {
		return nil, err
	}
	res, fstats, err := runPrograms(programs, as, opt, simRun{placement: placement, detector: det, mode: tlbModeFor(m)})
	if err != nil {
		return nil, err
	}
	d := &Detection{Mechanism: m, Matrix: res.Matrix, Result: res, FaultStats: fstats}
	if smd, ok := det.(*comm.SMDetector); ok {
		d.SampledFraction = smd.SampledFraction()
	}
	return d, nil
}

// newSuite returns the invariant suite a checked run arms (Options.Check).
// It is a variable so that tests can watch the suite a run begins.
var newSuite = func() sim.Checker { return check.NewSuite() }

// simRun is what distinguishes one of the pipeline's simulations;
// runPrograms takes the rest of the run's sim.Config from Options.
type simRun struct {
	placement []int
	detector  comm.Detector
	mode      tlb.Management
	// pageNode is the data placement of a NUMA run (sim.Config.PageNode).
	pageNode func(vm.Page) int
	// migrator, when non-nil, builds the run's sim.Config.Migrator from
	// the detector as the fault layer publishes it.
	migrator func(published comm.Detector) func(now uint64, placement []int) []int
}

// runPrograms is the one place the pipeline configures a simulation: every
// run gets the machine, geometries, jitter and interrupt of opt, the
// invariant suite when opt.Check is set, and the fault layer of opt.Faults
// around r.detector.
func runPrograms(programs []trace.Program, as *vm.AddressSpace, opt Options, r simRun) (*sim.Result, fault.Stats, error) {
	var checker sim.Checker
	if opt.Check {
		checker = newSuite()
	}
	inj := fault.New(opt.Faults, opt.Machine.NumCores())
	det := inj.WrapDetector(r.detector)
	var migrator func(now uint64, placement []int) []int
	if r.migrator != nil {
		migrator = r.migrator(det)
	}
	res, err := sim.Run(sim.Config{
		Checker:           checker,
		Machine:           opt.Machine,
		TLB:               opt.TLB,
		TLBMode:           r.mode,
		Placement:         r.placement,
		Detector:          det,
		PageNode:          r.pageNode,
		Perturber:         inj.Perturber(),
		Interrupt:         opt.Interrupt,
		JitterSeed:        opt.JitterSeed,
		Migrator:          migrator,
		MigrationInterval: opt.MigrationInterval,
	}, as, trace.NewTeam(programs, 0))
	return res, inj.Stats(), err
}
