// Package runner executes independent simulation jobs on a bounded worker
// pool. It is the parallel backbone of the experiment harness: the paper's
// evaluation is 9 benchmarks x 3 placements x N repetitions of full-system
// simulation, and every one of those (benchmark, placement, repetition)
// cells is an independent job.
//
// The package makes two determinism guarantees that the harness builds on:
//
//  1. Results come back in job-index order, regardless of which worker
//     finished which job when. Aggregating them in that order makes the
//     output of a parallel run bit-identical to a sequential run.
//  2. Seed derives per-job randomness from the job's identity (base seed
//     plus a list of identifying parts), never from execution order, so a
//     job computes the same result at any worker count.
package runner

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"strconv"
	"time"
)

// DefaultWorkers is the worker count used when a Pool's Workers field is
// zero or negative: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool bounds the concurrency of a batch of jobs and configures the
// hardening applied to each job (all hardening fields zero = plain
// fail-fast execution; panics are isolated regardless).
type Pool struct {
	// Workers is the number of worker goroutines; <= 0 selects
	// DefaultWorkers(). 1 degenerates to sequential execution (jobs run
	// in index order on the calling goroutine's schedule).
	Workers int
	// Progress, when non-nil, is called after every completed job with
	// the number of jobs finished so far and the total. Calls are
	// serialized by the pool, but arrive from worker goroutines.
	Progress func(done, total int)
	// Timeout is the wall-clock budget of one job attempt; 0 means no
	// limit. An attempt that exceeds it fails with
	// context.DeadlineExceeded. The job function receives a context
	// carrying the deadline; cooperative jobs (simulations wired through
	// sim.Config.Interrupt) stop promptly, non-cooperative ones keep
	// running detached until they return — their late result is
	// discarded.
	Timeout time.Duration
}

// Map runs fn(0..n-1) on the pool and returns the n results in job-index
// order. Jobs are dispatched in index order; when one fails, workers stop
// claiming new jobs, already-claimed jobs run to completion, and Map
// returns the error of the lowest-indexed failed job — which is the same
// error a sequential run would hit first, at any worker count. A panicking
// job is recovered and reported as a *PanicError carrying its stack; it
// never takes down the pool.
func Map[T any](p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// Run is Map without per-job results.
func Run(p Pool, n int, fn func(i int) error) error {
	_, err := Map(p, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// Seed derives a deterministic positive seed from a base seed and the
// identifying parts of a job (benchmark name, placement label, repetition
// number, ...). Equal inputs always produce the same seed; any change to
// the base or to a part produces an unrelated seed. The result never
// depends on execution order, which is what keeps parallel experiment
// output bit-identical to sequential output.
func Seed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // separator: Seed(b,"ab") != Seed(b,"a","b")
	}
	s := int64(h.Sum64() &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// SeedN is Seed with a trailing integer part, the common case of a
// repetition index.
func SeedN(base int64, n int, parts ...string) int64 {
	return Seed(base, append(append([]string(nil), parts...), strconv.Itoa(n))...)
}
