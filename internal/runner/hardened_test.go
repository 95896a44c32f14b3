package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A panicking job must come back as a *PanicError carrying the panic value
// and a stack trace, not crash the pool, and every other job's result must
// stay bit-identical to a panic-free run.
func TestMapRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, failed := MapPartial(context.Background(), Pool{Workers: workers}, 8,
				func(_ context.Context, i int) (int, error) {
					if i == 3 {
						panic("boom at job 3")
					}
					return i * i, nil
				})
			if len(failed) != 1 || failed[0].Index != 3 {
				t.Fatalf("failed = %+v, want exactly job 3", failed)
			}
			var pe *PanicError
			if !errors.As(failed[0], &pe) {
				t.Fatalf("job 3 error = %v, want *PanicError", failed[0])
			}
			if pe.Value != "boom at job 3" {
				t.Errorf("panic value = %v", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "hardened_test.go") {
				t.Errorf("stack does not point at the panic site:\n%s", pe.Stack)
			}
			for i, v := range results {
				want := i * i
				if i == 3 {
					want = 0
				}
				if v != want {
					t.Errorf("results[%d] = %d, want %d", i, v, want)
				}
			}
		})
	}
}

// Map (the fail-fast path) must also survive a panic and surface it as the
// lowest-indexed error with its text intact.
func TestMapFailFastPanic(t *testing.T) {
	_, err := Map(Pool{Workers: 2}, 4, func(i int) (int, error) {
		if i == 1 {
			panic(errors.New("kaboom"))
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := err.Error(); got != "job panicked: kaboom" {
		t.Errorf("err.Error() = %q", got)
	}
}

// Cancelling the context must stop a deliberately slow job promptly
// (satellite: Ctrl-C path): the job blocks on ctx.Done() the way a
// simulation wired through sim.Config.Interrupt does, and MapCtx has to
// return well before the job's natural 30s duration.
func TestMapCtxCancelsSlowJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	begin := time.Now()
	_, err := MapCtx(ctx, Pool{Workers: 2}, 4, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			close(started)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(30 * time.Second):
			return i, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(begin); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
}

// A per-job timeout must fail a cooperative slow job with
// DeadlineExceeded while letting fast jobs finish normally.
func TestPerJobTimeout(t *testing.T) {
	results, failed := MapPartial(context.Background(), Pool{Workers: 2, Timeout: 50 * time.Millisecond}, 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i + 10, nil
		})
	if len(failed) != 1 || failed[0].Index != 2 {
		t.Fatalf("failed = %+v, want exactly job 2", failed)
	}
	if !errors.Is(failed[0], context.DeadlineExceeded) {
		t.Errorf("job 2 error = %v, want DeadlineExceeded", failed[0])
	}
	if want := "job 2 failed after 1 attempt(s): context deadline exceeded"; failed[0].Attempts != 1 || failed[0].Error() != want {
		t.Errorf("JobError = %+v, Error() = %q, want %q", failed[0], failed[0].Error(), want)
	}
	for _, i := range []int{0, 1, 3} {
		if results[i] != i+10 {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i+10)
		}
	}
}

// A non-cooperative job that ignores its context must still be abandoned
// at the deadline rather than wedging the pool.
func TestTimeoutAbandonsNonCooperativeJob(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, failed := MapPartial(context.Background(), Pool{Workers: 1, Timeout: 20 * time.Millisecond}, 1,
		func(_ context.Context, _ int) (int, error) {
			<-block
			return 1, nil
		})
	if len(failed) != 1 || !errors.Is(failed[0], context.DeadlineExceeded) {
		t.Fatalf("failed = %+v, want DeadlineExceeded", failed)
	}
}

// MapPartial must keep running past failures and return every surviving
// result in job-index order, bit-identical at any worker count.
func TestMapPartialOrderingAcrossWorkerCounts(t *testing.T) {
	job := func(_ context.Context, i int) (int, error) {
		if i%5 == 2 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i * 3, nil
	}
	ref, refFailed := MapPartial(context.Background(), Pool{Workers: 1}, 23, job)
	for _, workers := range []int{2, 4, 8} {
		got, gotFailed := MapPartial(context.Background(), Pool{Workers: workers}, 23, job)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, got[i], ref[i])
			}
		}
		if len(gotFailed) != len(refFailed) {
			t.Fatalf("workers=%d: %d failures, want %d", workers, len(gotFailed), len(refFailed))
		}
		for i := range refFailed {
			if gotFailed[i].Index != refFailed[i].Index {
				t.Errorf("workers=%d: failure[%d].Index = %d, want %d",
					workers, i, gotFailed[i].Index, refFailed[i].Index)
			}
		}
	}
}

// A pre-cancelled context must fail every job without calling fn.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := atomic.Int64{}
	_, err := MapCtx(ctx, Pool{Workers: 4}, 16, func(_ context.Context, _ int) (int, error) {
		called.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called.Load() != 0 {
		t.Errorf("fn called %d times on a dead context", called.Load())
	}
}
