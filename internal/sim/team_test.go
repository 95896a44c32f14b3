package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"tlbmap/internal/runner"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// sweepTeam is an 8-thread team that sweeps a shared array between
// barriers, long enough that an aborted run leaves threads mid-program.
func sweepTeam() (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 1<<10)
	return as, trace.SPMD(8, func(th *trace.Thread) {
		for it := 0; it < 20; it++ {
			for i := th.ID(); i < arr.Len(); i += 8 {
				arr.Add(th, i, 1)
			}
			th.Barrier()
		}
	}, 16)
}

// failAfter is a checker whose OnAccess fails once n accesses have run.
type failAfter struct{ n int }

func (c *failAfter) Begin(CheckEnv) {}
func (c *failAfter) OnAccess(int, int, trace.Event, vm.Frame) error {
	if c.n--; c.n < 0 {
		return errors.New("checker violation")
	}
	return nil
}
func (c *failAfter) OnMigration(uint64, []int) error { return nil }
func (c *failAfter) Finish(*Result) error            { return nil }

// TestAbortedRunsLeaveNoThreads ends runs early in every way a run can
// fail — interruption, a clock overflow, a checker error and an invalid
// placement — and requires the goroutine count to return to where it
// started: every run stops the threads it did not finish.
func TestAbortedRunsLeaveNoThreads(t *testing.T) {
	interrupted := make(chan struct{})
	close(interrupted)
	cases := []struct {
		name string
		run  func() error
	}{
		{"interrupted", func() error {
			as, team := sweepTeam()
			_, err := Run(Config{Machine: topology.Harpertown(), Interrupt: interrupted}, as, team)
			return err
		}},
		{"clock-overflow", func() error {
			as := vm.NewAddressSpace()
			arr := trace.NewF64(as, 8)
			team := trace.SPMD(8, func(th *trace.Thread) {
				th.Compute(1 << 61)
				arr.Get(th, th.ID())
				th.Barrier()
				arr.Get(th, th.ID())
			}, 0)
			_, err := Run(Config{Machine: topology.Harpertown()}, as, team)
			return err
		}},
		{"checker-error", func() error {
			as, team := sweepTeam()
			_, err := Run(Config{Machine: topology.Harpertown(), Checker: &failAfter{n: 100}}, as, team)
			return err
		}},
		{"invalid-placement", func() error {
			as, team := sweepTeam()
			_, err := Run(Config{Machine: topology.Harpertown(), Placement: []int{0, 0, 1, 2, 3, 4, 5, 6}}, as, team)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				if err := c.run(); err == nil {
					t.Fatal("run succeeded; want it to end early with an error")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after 10 aborted runs, %d before", n, before)
			}
		})
	}
}

// TestKernelPanicFailsOnlyItsJob runs four simulations through the
// hardened runner; thread 3 of job 2 indexes out of range. The panic must
// surface on the engine's goroutine, where the runner turns it into that
// job's *runner.PanicError carrying a *trace.Panic, and the other jobs
// must return their results.
func TestKernelPanicFailsOnlyItsJob(t *testing.T) {
	const jobs, bad = 4, 2
	results, failed := runner.MapPartial(context.Background(), runner.Pool{Workers: 2}, jobs,
		func(_ context.Context, job int) (uint64, error) {
			as := vm.NewAddressSpace()
			arr := trace.NewF64(as, 64)
			team := trace.SPMD(8, func(th *trace.Thread) {
				arr.Get(th, th.ID())
				th.Barrier()
				if job == bad && th.ID() == 3 {
					var empty []int
					_ = empty[th.ID()+2]
				}
				arr.Set(th, th.ID(), 1)
			}, 0)
			res, err := Run(Config{Machine: topology.Harpertown()}, as, team)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		})
	if len(failed) != 1 || failed[0].Index != bad {
		t.Fatalf("failed jobs = %v, want job %d only", failed, bad)
	}
	var pe *runner.PanicError
	if !errors.As(failed[0].Err, &pe) {
		t.Fatalf("job %d error %v is not a *runner.PanicError", bad, failed[0].Err)
	}
	tp, ok := pe.Value.(*trace.Panic)
	if !ok {
		t.Fatalf("panic value %T (%v), want *trace.Panic", pe.Value, pe.Value)
	}
	if tp.Thread != 3 || !strings.Contains(tp.Error(), "index out of range [5] with length 0") || len(tp.Stack) == 0 {
		t.Errorf("trace.Panic = thread %d, %q, %d stack bytes; want thread 3's index error with its stack", tp.Thread, tp.Error(), len(tp.Stack))
	}
	for i, cycles := range results {
		if i != bad && cycles == 0 {
			t.Errorf("job %d returned no result", i)
		}
	}
}
