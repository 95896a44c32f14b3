package sim

import (
	"errors"
	"testing"

	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// recordingPerturber exercises the whole Perturber surface: it counts
// hook firings, flushes a TLB through the env on a schedule, and charges
// stalls.
type recordingPerturber struct {
	env         CheckEnv
	events      int
	stallEvery  int
	stallCycles uint64
	flushEvery  int
	migrations  [][]int
}

func (p *recordingPerturber) Begin(env CheckEnv) { p.env = env }

func (p *recordingPerturber) OnQuantum(now uint64, thread int, events int) uint64 {
	var stall uint64
	for e := 0; e < events; e++ {
		p.events++
		if p.flushEvery > 0 && p.events%p.flushEvery == 0 {
			p.env.TLBs[p.env.Placement[thread]].Flush()
		}
		if p.stallEvery > 0 && p.events%p.stallEvery == 0 {
			stall += p.stallCycles
		}
	}
	return stall
}

func (p *recordingPerturber) OnMigration(now uint64, moved []int) {
	p.migrations = append(p.migrations, append([]int(nil), moved...))
}

func strideProgram(arr *trace.F64) trace.Program {
	return func(th *trace.Thread) {
		for i := 0; i < 200; i++ {
			arr.Set(th, (th.ID()*97+i*13)%arr.Len(), 1)
			th.Compute(50)
		}
	}
}

// The perturber's quantum hook must account for every trace event and its
// env must carry flushable TLBs: flushed entries force extra TLB
// misses relative to a clean run, while accesses and final memory
// behaviour stay intact.
func TestPerturberSeesEventsAndFlushes(t *testing.T) {
	run := func(p Perturber) *Result {
		as := vm.NewAddressSpace()
		arr := trace.NewF64(as, 512)
		team := trace.SPMD(8, strideProgram(arr), 0)
		cfg := harpertownConfig()
		cfg.Perturber = p
		res, err := Run(cfg, as, team)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	p := &recordingPerturber{flushEvery: 40}
	faulty := run(p)

	// strideProgram: 8 threads x 200 iterations x (1 store + 1 compute).
	if want := 8 * 200 * 2; p.events != want {
		t.Errorf("perturber saw %d trace events, want %d", p.events, want)
	}
	if faulty.Accesses != clean.Accesses {
		t.Errorf("faults changed the access count: %d vs %d", faulty.Accesses, clean.Accesses)
	}
	if faulty.TLBMissRate <= clean.TLBMissRate {
		t.Errorf("TLB flushes did not raise the miss rate: clean %.4f, faulty %.4f",
			clean.TLBMissRate, faulty.TLBMissRate)
	}
}

// Stalls returned by OnQuantum must be charged to the thread's clock.
func TestPerturberStallsExtendRuntime(t *testing.T) {
	run := func(p Perturber) *Result {
		as := vm.NewAddressSpace()
		arr := trace.NewF64(as, 512)
		team := trace.SPMD(8, strideProgram(arr), 0)
		cfg := harpertownConfig()
		cfg.Perturber = p
		res, err := Run(cfg, as, team)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	faulty := run(&recordingPerturber{stallEvery: 10, stallCycles: 5_000})
	if faulty.Cycles <= clean.Cycles {
		t.Errorf("stalls did not extend the run: clean %d, faulty %d cycles", clean.Cycles, faulty.Cycles)
	}
}

// OnMigration must fire with exactly the threads that moved, after the
// view was rebuilt (so flushing moved threads' destination cores through
// the env hits the TLBs they now run on).
func TestPerturberMigrationHook(t *testing.T) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 512)
	team := trace.SPMD(8, func(th *trace.Thread) {
		for i := 0; i < 400; i++ {
			arr.Set(th, (th.ID()*31+i)%arr.Len(), 1)
			th.Compute(2_000)
		}
	}, 0)
	cfg := harpertownConfig()
	p := &recordingPerturber{}
	cfg.Perturber = p
	swapped := false
	cfg.MigrationInterval = 100_000
	cfg.Migrator = func(now uint64, placement []int) []int {
		if swapped {
			return nil
		}
		swapped = true
		placement[0], placement[1] = placement[1], placement[0]
		return placement
	}
	res, err := Run(cfg, as, team)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 2 {
		t.Fatalf("migrations = %d, want 2 (one swap)", res.Migrations)
	}
	if len(p.migrations) != 1 {
		t.Fatalf("OnMigration fired %d times, want 1", len(p.migrations))
	}
	if got := p.migrations[0]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("moved = %v, want [0 1]", got)
	}
}

// Closing Interrupt must stop the run with ErrInterrupted well before a
// long program completes.
func TestInterruptStopsRun(t *testing.T) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 512)
	team := trace.SPMD(8, func(th *trace.Thread) {
		for i := 0; i < 1_000_000; i++ {
			arr.Set(th, (th.ID()+i)%arr.Len(), 1)
		}
	}, 0)
	stop := make(chan struct{})
	close(stop)
	cfg := harpertownConfig()
	cfg.Interrupt = stop
	_, err := Run(cfg, as, team)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// A never-firing Interrupt channel must not change the result of a run.
func TestIdleInterruptChannelIsHarmless(t *testing.T) {
	run := func(ch <-chan struct{}) *Result {
		as := vm.NewAddressSpace()
		arr := trace.NewF64(as, 512)
		team := trace.SPMD(8, strideProgram(arr), 0)
		cfg := harpertownConfig()
		cfg.Interrupt = ch
		res, err := Run(cfg, as, team)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	idle := run(make(chan struct{}))
	if idle.Cycles != clean.Cycles || idle.Accesses != clean.Accesses {
		t.Errorf("idle interrupt changed the run: %d/%d cycles, %d/%d accesses",
			idle.Cycles, clean.Cycles, idle.Accesses, clean.Accesses)
	}
}
