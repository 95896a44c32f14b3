package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a job panic converted into an ordinary error. The worker
// that recovered it keeps running; the panic value and the goroutine stack
// at the panic site travel with the job result instead of killing the pool.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured inside the recovering frame
}

func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// JobError is the failure record of one job in a partial-result run: which
// job, whether it ran (Attempts is 1, or 0 for a job cancellation left
// unclaimed), and its error.
type JobError struct {
	Index    int
	Attempts int
	Err      error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %d failed after %d attempt(s): %v", e.Index, e.Attempts, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// MapCtx is Map with a context: cancelling ctx stops workers from claiming
// new jobs and is delivered to in-flight jobs through their context, so
// cooperative jobs (e.g. simulations wired through sim.Config.Interrupt)
// return promptly. Like Map it fails fast and returns the lowest-indexed
// error; on cancellation that is the context's error unless a job failed
// first.
func MapCtx[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results, errs := mapEngine(ctx, p, n, fn, true)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// MapPartial runs every job to completion regardless of other jobs'
// failures and returns whatever succeeded: results[i] is fn's value for
// job i (the zero value if it failed), and the second return lists the
// failures in ascending job order as *JobError records. Cancellation still
// stops the batch: unclaimed jobs fail with the context's error. The
// result ordering is bit-identical at any worker count.
func MapPartial[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []*JobError) {
	results, errs := mapEngine(ctx, p, n, fn, false)
	var failed []*JobError
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err.(*JobError))
		}
	}
	return results, failed
}

// Attempt runs one function under the pool's single-attempt hardening
// without a pool: the per-attempt timeout (0 = none) and panic isolation
// of runAttempt. It is the execution layer of the serving path — every
// placement query runs inside an Attempt so a deadline turns into
// context.DeadlineExceeded and a panicking tenant turns into a
// *PanicError instead of killing the daemon. Like a pool job with a
// timeout, a non-cooperative fn keeps running detached past the deadline;
// its late result is discarded.
func Attempt[T any](ctx context.Context, timeout time.Duration, fn func(ctx context.Context) (T, error)) (T, error) {
	return runAttempt(ctx, timeout, 0, func(ctx context.Context, _ int) (T, error) {
		return fn(ctx)
	})
}

// mapEngine is the shared claim-loop core of Map/MapCtx/MapPartial.
// errs[i] holds job i's error: the raw last-attempt error in fail-fast
// mode, a *JobError in partial mode, or ctx.Err() for jobs never claimed
// after cancellation.
func mapEngine[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error), failFast bool) (results []T, errs []error) {
	if n <= 0 {
		return nil, nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results = make([]T, n)
	errs = make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		done   int
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	finish := func() {
		if p.Progress == nil {
			return
		}
		mu.Lock()
		done++
		p.Progress(done, n)
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failFast && failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					if !failFast {
						err = &JobError{Index: i, Attempts: 0, Err: err}
					}
					errs[i] = err
					failed.Store(true)
					finish()
					continue
				}
				v, err := runAttempt(ctx, p.Timeout, i, fn)
				if err != nil {
					if !failFast {
						err = &JobError{Index: i, Attempts: 1, Err: err}
					}
					errs[i] = err
					failed.Store(true)
				} else {
					results[i] = v
				}
				finish()
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runAttempt executes one attempt of job i under the per-attempt timeout.
// With a timeout the job runs on its own goroutine so the pool can abandon
// it at the deadline: the job's context is cancelled (cooperative jobs
// return promptly and their late result is discarded) and the attempt
// fails with context.DeadlineExceeded.
func runAttempt[T any](ctx context.Context, timeout time.Duration, i int, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	if timeout <= 0 {
		return protect(ctx, i, fn)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late job must not leak its goroutine
	go func() {
		v, err := protect(actx, i, fn)
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-actx.Done():
		var zero T
		return zero, actx.Err()
	}
}

// protect runs fn(ctx, i) and converts a panic into a *PanicError with the
// stack of the panicking goroutine attached.
func protect[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
