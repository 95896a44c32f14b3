// Package sim is the multicore simulation engine: it drives a team of
// traced threads over the TLB, cache and interconnect models with per-core
// cycle accounting, playing the role Simics plays in the paper's evaluation
// (Section V-B).
//
// Scheduling is event-interleaved: the engine always advances the thread
// whose core clock is furthest behind, so simulated time progresses the way
// it would on real concurrent hardware. Threads are pinned to cores by a
// placement (thread -> core permutation); the placement under test is the
// only thing that changes between the OS-baseline, SM and HM performance
// runs of Figures 6-9.
package sim

import (
	"fmt"
	"math/rand"

	"tlbmap/internal/comm"
	"tlbmap/internal/mem"
	"tlbmap/internal/metrics"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// Config assembles one simulation run.
type Config struct {
	// Machine is the hardware topology (required).
	Machine *topology.Machine
	// L1/L2 cache geometries; zero values select the Table II defaults.
	L1, L2 mem.CacheConfig
	// TLB geometry; the zero value selects the paper's 64-entry 4-way TLB.
	TLB tlb.Config
	// TLB2 optionally enables a second-level TLB (the x86 STLB; use
	// tlb.DefaultL2Config for the Nehalem geometry). It is only honoured
	// in hardware-managed mode: software-managed architectures have a
	// single TLB level, and the SM detector must see every miss.
	TLB2 tlb.Config
	// TLBMode selects software- or hardware-managed TLB refills, which
	// determines the baseline miss cost (trap vs. page walk).
	TLBMode tlb.Management
	// Placement maps thread -> core. It must be a permutation with one
	// thread per core. Nil selects the identity placement.
	Placement []int
	// Detector observes the run; nil selects comm.NullDetector.
	Detector comm.Detector
	// PageNode, when non-nil on a NUMA machine, is the data-placement
	// policy: the NUMA node each virtual page's memory is allocated on.
	// Pages are placed when first walked (like an OS allocating the
	// physical frame on first touch). Nil places everything on node 0.
	PageNode func(vm.Page) int
	// Migrator, when non-nil, enables dynamic thread migration — the
	// scheduler modification the paper's future work calls for. Every
	// MigrationInterval cycles the engine passes the current thread ->
	// core placement to the Migrator; returning a different permutation
	// migrates the moved threads: they continue on their new cores with
	// cold TLBs and caches (the natural migration penalty) plus
	// MigrationCost cycles of context-switch overhead each.
	//
	// The placement slice handed to the Migrator is a scratch buffer the
	// engine reuses between polls: it is only valid for the duration of
	// the call and must not be retained (return a new slice — or the
	// buffer itself, mutated — to request a migration).
	Migrator func(now uint64, placement []int) []int
	// MigrationInterval is the Migrator polling period in cycles
	// (0 selects 500,000).
	MigrationInterval uint64
	// JitterSeed, when non-zero, enables system-noise modelling: threads
	// start with small random clock offsets and Compute durations vary by
	// ±JitterAmp. This reproduces the run-to-run variability of real
	// executions (the standard deviations of Table V); 0 gives fully
	// deterministic runs.
	//
	// The seed is the run's only source of randomness, so equal configs
	// produce bit-identical Results regardless of wall-clock timing or
	// which goroutine executes them. Callers fanning runs out in parallel
	// (internal/runner) must derive each run's seed from the run's
	// identity — e.g. runner.SeedN(base, rep, benchmark, ...) — never
	// from a shared RNG consumed in execution order.
	JitterSeed int64
	// JitterAmp is the relative amplitude of compute-time noise; zero
	// selects the default of 0.05 (5%).
	JitterAmp float64
	// Checker, when non-nil, arms the runtime invariant-checking layer
	// (internal/check): the engine reports every access, migration and
	// the final result, and — if the checker also implements
	// mem.Observer — the memory hierarchy reports every coherence
	// transition. Any violation aborts the run with an error. Nil (the
	// default) costs one pointer comparison per access.
	Checker Checker
	// Perturber, when non-nil, arms the fault-injection layer
	// (internal/fault): it may flush TLBs and stall threads at hook
	// points (trace-quantum boundaries and migrations, off the per-event
	// path), disturbing detection fidelity without ever touching
	// architectural state. Nil (the default) costs nothing on the
	// scheduler's hot loop.
	Perturber Perturber
	// Interrupt, when non-nil, is polled at trace-batch boundaries
	// (every few hundred events per thread, off the per-event path);
	// once it is closed (or delivers a value) the run stops with
	// ErrInterrupted. The hardened runner wires a context's Done channel
	// here so per-job timeouts and Ctrl-C cancel in-flight simulations
	// promptly.
	Interrupt <-chan struct{}
}

// Result carries everything a run produced.
type Result struct {
	// Cycles is the simulated execution time: the largest core clock.
	Cycles uint64
	// CoreCycles is the final clock of every core.
	CoreCycles []uint64
	// Counters is the machine-wide event total.
	Counters metrics.Counters
	// PerCore holds the per-core counter banks.
	PerCore []metrics.Counters
	// Accesses is the number of data accesses simulated.
	Accesses uint64
	// TLBMissRate is misses/lookups over all cores (Table III column 1).
	TLBMissRate float64
	// DetectionOverhead is detection cycles / total cycles (Table III
	// column 3).
	DetectionOverhead float64
	// Matrix is the communication matrix the detector accumulated (nil
	// for NullDetector).
	Matrix *comm.Matrix
	// Detector echoes the detector's name.
	Detector string
	// Placement echoes the final thread -> core placement (it differs
	// from the initial one when a Migrator moved threads).
	Placement []int
	// Migrations counts individual thread moves performed by the
	// Migrator.
	Migrations int
}

// threadState tracks one thread inside the scheduler.
type threadState struct {
	batch     trace.Batch
	idx       int // next event within batch
	clock     uint64
	atBarrier bool
	done      bool
	started   bool
}

// Run drives a team to completion and returns the result. The address space
// must be the one the team's traced arrays were allocated in.
//
// A thread clock too large for the scheduler's packed key ends the run with
// an error wrapping ErrClockOverflow; any other panic propagates, a kernel's
// as a *trace.Panic. Run closes the team before it returns, so a run that
// ends early leaves none of its threads parked.
func Run(cfg Config, as *vm.AddressSpace, team *trace.Team) (res *Result, err error) {
	defer team.Close()
	defer func() {
		if r := recover(); r != nil {
			co, ok := r.(clockOverflow)
			if !ok {
				panic(r)
			}
			res, err = nil, co
		}
	}()
	n := len(team.Threads)
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sim: Config.Machine is required")
	}
	if cfg.Machine.NumCores() != n {
		return nil, fmt.Errorf("sim: %d threads but machine has %d cores (the paper maps one thread per core)",
			n, cfg.Machine.NumCores())
	}
	placement := cfg.Placement
	if placement == nil {
		placement = make([]int, n)
		for i := range placement {
			placement[i] = i
		}
	}
	if err := validatePlacement(placement, n); err != nil {
		return nil, err
	}
	if cfg.L1 == (mem.CacheConfig{}) {
		cfg.L1 = mem.DefaultL1Config
	}
	if cfg.L2 == (mem.CacheConfig{}) {
		cfg.L2 = mem.DefaultL2Config
	}
	if cfg.TLB == (tlb.Config{}) {
		cfg.TLB = tlb.DefaultConfig
	}
	det := cfg.Detector
	if det == nil {
		det = comm.NullDetector{}
	}
	// Disarmed-detector fast path: every NullDetector hook is a no-op, so
	// the hot loop skips the dynamic dispatch entirely (three interface
	// calls per access add up over hundreds of millions of events).
	_, nullDet := det.(comm.NullDetector)

	system := mem.NewSystem(cfg.Machine, cfg.L1, cfg.L2)
	l2cfg := cfg.TLB2
	if cfg.TLBMode == tlb.SoftwareManaged {
		l2cfg = tlb.Config{}
	}
	hier := make([]*tlb.Hierarchy, n) // indexed by core
	for c := 0; c < n; c++ {
		hier[c] = tlb.NewHierarchy(cfg.TLB, l2cfg)
	}

	// Detectors read the TLBs through a presence index over every core's
	// first-level TLB (the level detection reads; the optional second
	// level only changes miss costs on hardware-managed machines). Slot c
	// is core c's TLB, and the view's slot -> thread table makes detector
	// matrices come out indexed by thread; a migration rewrites the table.
	// The TLBs maintain the index through every Insert, Invalidate and
	// Flush, the fault layer's shootdowns included. Null-detector runs
	// build no index and pay nothing on the insert path.
	var tlbs comm.TLBView
	if !nullDet {
		l1 := make([]*tlb.TLB, n)
		for c := range l1 {
			l1[c] = hier[c].L1()
		}
		tlbs = comm.NewTLBView(l1)
	}
	rebuildView := func() {
		if tlbs.Index == nil {
			return
		}
		for t, c := range placement {
			tlbs.ThreadOf[c] = int32(t)
		}
	}
	rebuildView()

	missCost := uint64(vm.WalkCost)
	if cfg.TLBMode == tlb.SoftwareManaged {
		missCost = vm.TrapCost
	}

	env := CheckEnv{
		Machine:         cfg.Machine,
		AS:              as,
		System:          system,
		TLB:             func(core int) *tlb.TLB { return hier[core].L1() },
		FlushTLB:        func(core int) { hier[core].Flush() },
		View:            tlbs,
		Placement:       placement,
		SoftwareManaged: cfg.TLBMode == tlb.SoftwareManaged,
	}
	if cfg.Checker != nil {
		if obs, ok := cfg.Checker.(mem.Observer); ok {
			system.SetObserver(obs)
		}
		cfg.Checker.Begin(env)
	}
	if cfg.Perturber != nil {
		cfg.Perturber.Begin(env)
	}

	var rng *rand.Rand
	amp := cfg.JitterAmp
	if amp == 0 {
		amp = 0.05
	}
	if cfg.JitterSeed != 0 {
		rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}

	// Thread states live in one flat slice (pointer-free apart from the
	// batch) so the scheduler walks contiguous memory; the ready queue
	// below indexes into it.
	states := make([]threadState, n)
	for i := range states {
		if rng != nil {
			// Stagger thread start-up like a real runtime would.
			states[i].clock = uint64(rng.Intn(2048))
		}
	}

	var detectionCycles, accesses uint64
	detCtr := make([]uint64, n) // per-core detection cycles (already in clock)
	var placed *frameBitset
	if cfg.PageNode != nil {
		placed = newFrameBitset(as.MappedPages())
	}
	migInterval := cfg.MigrationInterval
	if migInterval == 0 {
		migInterval = 500_000
	}
	var lastMigCheck uint64
	migArmed := false
	migrations := 0
	// Scratch buffers for the migration poll, reused across polls so an
	// armed Migrator that declines to move anyone costs no allocation.
	var migScratch, moved []int
	if cfg.Migrator != nil {
		migScratch = make([]int, n)
		moved = make([]int, 0, n)
	}

	// The ready queue: runnable threads ordered by (clock, thread id). See
	// sched.go for the equivalence argument with the linear scan it
	// replaces.
	sched := newSchedHeap(states)
	for i := 0; i < n; i++ {
		sched.push(i)
	}

	// refill fetches the next batch for thread i (starting it on first use).
	refill := func(i int) {
		st := &states[i]
		if !st.started {
			st.started = true
			st.batch = team.Start(i)
		} else {
			st.batch = team.Resume(i)
		}
		st.idx = 0
	}

	// Capability gating beyond the NullDetector fast path: detectors that
	// declare MaybeScan or OnAccess side-effect-free no-ops (SM, HM,
	// oracle) skip the corresponding per-event dynamic dispatch. Wrappers
	// without the markers (Multi, Epoch, the fault layer) keep the full
	// conservative hook set.
	scanDet := !nullDet
	accessDet := !nullDet
	if _, ok := det.(comm.NeverScans); ok {
		scanDet = false
	}
	if _, ok := det.(comm.IgnoresAccesses); ok {
		accessDet = false
	}
	checkerOn := cfg.Checker != nil
	migratorOn := cfg.Migrator != nil

	aliveCount := n
	// pendingFix defers the span-end key rebuild into the next selection:
	// fixAndPick folds the two traversals over the ready queue into one
	// visit. -1 means no rebuild is owed (span ended in a remove, or first
	// iteration).
	pendingFix := -1
	for aliveCount > 0 {
		var i int
		var limit uint64
		if pendingFix >= 0 {
			i, limit = sched.fixAndPick(pendingFix)
			pendingFix = -1
		} else {
			i, limit = sched.pick()
		}
		if i == -1 {
			// Everyone alive is parked at a barrier: release it.
			var maxClock uint64
			for j := range states {
				if st := &states[j]; !st.done && st.clock > maxClock {
					maxClock = st.clock
				}
			}
			released := false
			for j := range states {
				st := &states[j]
				if st.done || !st.atBarrier {
					continue
				}
				st.clock = maxClock
				st.atBarrier = false
				refill(j)
				sched.push(j)
				released = true
			}
			if !released {
				return nil, fmt.Errorf("sim: scheduler stuck with %d threads alive", aliveCount)
			}
			continue
		}
		st := &states[i]
		if !st.started {
			refill(i)
		}

		// Batched apply: run thread i's events in one tight span for as
		// long as its rebuilt key stays below every other runnable
		// thread's key — exactly the window over which re-running peek
		// would return i again — so the heap is touched once per span
		// instead of once per event, and the per-thread lookups (core,
		// TLB hierarchy, counter bank) are hoisted out of the event loop.
		// The resulting global event order is identical to per-event
		// selection (TestHeapSchedulerMatchesLinear pins it to a frozen
		// linear-scan oracle). The bound shifts with uniform clock
		// charges (HM scans hit every key equally) and is invalidated by
		// non-uniform ones (migration penalties, preemption stalls),
		// which end the span. The bound is translated from packed-key
		// space into raw clock space once per span — st.clock >=
		// clockBound ⟺ key(i) >= nextKey() — so the per-event check is
		// one integer compare instead of a key() call.
		// ceil((limit-i)/2^idBits) is the smallest clock whose packed key
		// reaches limit; a limit at or below the thread id can never be
		// beaten (keys are ≥ the id), and the all-ones "sole runnable
		// thread" sentinel maps to an unreachable bound.
		var clockBound uint64
		if limit == ^uint64(0) {
			clockBound = ^uint64(0)
		} else if limit > uint64(i) {
			clockBound = (limit - uint64(i) + sched.idMask) >> sched.idBits
		}
		removed := false
		core := placement[i]
		h := hier[core]
		ctr := system.Counters(core)
		// The three per-event mutable fields live in locals for the span
		// (registers instead of stores through st); boundaries that leave
		// the loop or call hooks observing thread state sync them back.
		events := st.batch.Events
		idx := st.idx
		clock := st.clock
		for {
			if idx >= len(events) {
				st.idx, st.clock = idx, clock
				// Batch exhausted: act on its terminator. Batches are
				// capped at trace.DefaultQuantum events, so this branch
				// fires every few hundred events per thread — frequent
				// enough for the cancellation poll and the fault-
				// injection quantum hook, while keeping both entirely
				// off the per-event path.
				if cfg.Interrupt != nil {
					select {
					case <-cfg.Interrupt:
						return nil, ErrInterrupted
					default:
					}
				}
				// Fault-injection hook: the perturber may flush TLBs
				// through the env it was armed with and stall this
				// thread (preemption), expanding per-event fault rates
				// over the quantum's event count. st.clock is the global
				// time watermark here, so injector decisions keyed on
				// `now` are deterministic.
				stalled := false
				if cfg.Perturber != nil && idx > 0 {
					if stall := cfg.Perturber.OnQuantum(clock, i, idx); stall > 0 {
						st.clock += stall
						sched.fix(i)
						stalled = true
					}
				}
				switch {
				case st.batch.Done:
					st.done = true
					aliveCount--
					sched.remove(i)
					removed = true
				case st.batch.Barrier:
					st.atBarrier = true
					sched.remove(i)
					removed = true
				default:
					refill(i) // same clock: the heap key is unchanged
					if !stalled {
						events = st.batch.Events
						idx = st.idx
						continue
					}
					// The stall moved this thread's clock: end the span
					// and let the scheduler re-pick.
				}
				break
			}

			ev := events[idx]
			idx++

			if ev.Kind == trace.Compute {
				c := uint64(ev.Addr)
				if rng != nil {
					c = uint64(float64(c) * (1 - amp + 2*amp*rng.Float64()))
				}
				clock += c
				if clock >= clockBound {
					st.idx, st.clock = idx, clock
					break
				}
				continue
			}

			// Dynamic migration hook: consult the Migrator on the global
			// time watermark grid. Migrated threads pay the context-
			// switch cost and continue with the destination core's (cold
			// or stale) TLB and caches.
			migrated := false
			if migratorOn {
				if !migArmed {
					migArmed = true
					lastMigCheck = clock
				} else if clock-lastMigCheck >= migInterval {
					lastMigCheck = clock
					// The migrator and the hooks below observe thread
					// clocks (states[i] aliases st), so sync the hoisted
					// state around the whole branch.
					st.idx, st.clock = idx, clock
					copy(migScratch, placement)
					next := cfg.Migrator(clock, migScratch)
					if next != nil {
						if err := validatePlacement(next, n); err != nil {
							return nil, fmt.Errorf("sim: migrator returned invalid placement: %w", err)
						}
						moved = moved[:0]
						for th := range placement {
							if placement[th] != next[th] {
								states[th].clock += MigrationCost
								sched.fix(th)
								migrations++
								moved = append(moved, th)
							}
						}
						copy(placement, next)
						rebuildView()
						// Perturb before checking, so the checker
						// validates the post-fault state (context-switch
						// TLB flushes are architecturally legal and must
						// not trip it).
						if cfg.Perturber != nil && len(moved) > 0 {
							cfg.Perturber.OnMigration(st.clock, moved)
						}
						if cfg.Checker != nil {
							if err := cfg.Checker.OnMigration(st.clock, placement); err != nil {
								return nil, fmt.Errorf("sim: check after migration: %w", err)
							}
						}
						// Clocks moved non-uniformly and this thread may
						// run on a new core: reload the span's hoisted
						// state, finish this event, then end the span.
						migrated = true
						core = placement[i]
						h = hier[core]
						ctr = system.Counters(core)
						clock = st.clock // this thread may have been charged MigrationCost
					}
				}
			}

			// Periodic detection hook (HM). Because the scheduler always
			// advances the minimum clock, st.clock is the global time
			// watermark here. The scan charges every live thread the
			// same cost; a uniform increment preserves the relative
			// order of all (clock, id) keys, so the ready queue only
			// shifts its keys (addAll) — and the span bound shifts by
			// the same amount.
			if scanDet {
				if scanCost := det.MaybeScan(clock, tlbs); scanCost > 0 {
					detectionCycles += scanCost
					// The uniform charge below hits states[i] too: sync the
					// hoisted clock first, reload it after.
					st.idx, st.clock = idx, clock
					for j := range states {
						if other := &states[j]; !other.done {
							other.clock += scanCost
							detCtr[j] += scanCost
						}
					}
					clock = st.clock
					sched.addAll(scanCost)
					ctr.Inc(metrics.DetectionSearches)
					if clockBound != ^uint64(0) {
						clockBound += scanCost
					}
				}
			}

			accesses++

			// Address translation through the TLB hierarchy of the
			// thread's current core.
			page := ev.Addr.Page()
			frame, where := h.Lookup(page)
			// The TLBHits/TLBMisses counter banks are not touched here:
			// the TLBs keep the same statistics themselves, so the banks
			// are settled once from the hardware counts at result
			// assembly instead of once per access.
			switch where {
			case tlb.HitL1:
				clock++ // TLB access overlaps with L1 pipeline; 1 cycle
			case tlb.HitL2:
				// STLB hit: cheap refill, invisible to the OS (and hence
				// to the detectors).
				clock += tlb.STLBCost
			default: // full miss: walk (HM) or trap (SM)
				clock += missCost
				if !nullDet {
					if smCost := det.OnTLBMiss(i, page, tlbs); smCost > 0 {
						clock += smCost
						detectionCycles += smCost
						detCtr[i] += smCost
						ctr.Inc(metrics.DetectionSearches)
					}
				}
				tr, err := as.Translate(ev.Addr)
				if err != nil {
					return nil, fmt.Errorf("sim: thread %d: %w", i, err)
				}
				frame = tr.Frame
				h.Insert(tr)
				if placed != nil && !placed.test(uint64(tr.Frame)) {
					system.PlaceFrame(uint64(tr.Frame), cfg.PageNode(tr.Page))
					placed.set(uint64(tr.Frame))
				}
			}

			if accessDet {
				det.OnAccess(i, ev.Addr)
			}

			phys := uint64(frame)<<vm.PageShift | ev.Addr.Offset()
			line := mem.Line(phys >> mem.LineShift)
			if ev.Kind == trace.Load {
				clock += system.Read(core, line, clock)
			} else {
				clock += system.Write(core, line, clock)
			}
			if checkerOn {
				if err := cfg.Checker.OnAccess(i, core, ev, frame); err != nil {
					return nil, fmt.Errorf("sim: check after access %d (thread %d): %w", accesses, i, err)
				}
			}
			if migrated || clock >= clockBound {
				st.idx, st.clock = idx, clock
				break
			}
		}
		if !removed {
			pendingFix = i
		}
	}

	// Assemble the result.
	res = &Result{
		CoreCycles: make([]uint64, n),
		PerCore:    make([]metrics.Counters, n),
		Accesses:   accesses,
		Matrix:     det.Matrix(),
		Detector:   det.Name(),
		Placement:  append([]int(nil), placement...),
		Migrations: migrations,
	}
	var tlbLookups, tlbMisses uint64
	for i := 0; i < n; i++ {
		core := placement[i]
		res.CoreCycles[core] = states[i].clock
		if states[i].clock > res.Cycles {
			res.Cycles = states[i].clock
		}
		bank := system.Counters(core)
		bank.Add(metrics.DetectionCycles, detCtr[i])
		// Settle the TLB counter banks from the hardware statistics: the
		// engine counts a hit for an access resolved at either TLB level
		// and a miss only when every level missed, which is exactly
		// l1.hits + hierarchy.l2Hits and hierarchy.l2Misses (or l1.misses
		// on single-level hierarchies).
		bank.Add(metrics.TLBHits, hier[core].L1().Hits()+hier[core].L2Hits())
		if hier[core].HasL2() {
			bank.Add(metrics.TLBMisses, hier[core].L2Misses())
		} else {
			bank.Add(metrics.TLBMisses, hier[core].L1().Misses())
		}
		res.PerCore[core] = bank.Snapshot()
		// hier is indexed by CORE; i is a thread index. (The totals were
		// right even with hier[i] because placement is a permutation, but
		// each iteration must read the TLB of thread i's own core.)
		tlbLookups += hier[core].L1().Hits() + hier[core].L1().Misses()
		tlbMisses += hier[core].L1().Misses()
	}
	res.Counters = system.TotalCounters()
	if tlbLookups > 0 {
		res.TLBMissRate = float64(tlbMisses) / float64(tlbLookups)
	}
	if res.Cycles > 0 {
		res.DetectionOverhead = float64(detectionCycles) / float64(res.Cycles)
	}
	if cfg.Checker != nil {
		if err := cfg.Checker.Finish(res); err != nil {
			return nil, fmt.Errorf("sim: final check: %w", err)
		}
	}
	return res, nil
}

// MigrationCost is the context-switch overhead, in cycles, charged to each
// thread a Migrator moves (the cold-cache/cold-TLB penalty emerges
// naturally from the destination core's state).
const MigrationCost = 20_000

func validatePlacement(placement []int, n int) error {
	if len(placement) != n {
		return fmt.Errorf("sim: placement has %d entries for %d threads", len(placement), n)
	}
	seen := make([]bool, n)
	for t, c := range placement {
		if c < 0 || c >= n {
			return fmt.Errorf("sim: thread %d placed on invalid core %d", t, c)
		}
		if seen[c] {
			return fmt.Errorf("sim: core %d assigned to more than one thread", c)
		}
		seen[c] = true
	}
	return nil
}
