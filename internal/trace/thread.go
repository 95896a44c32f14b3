// Package trace provides the programming model for simulated workloads:
// kernels are ordinary Go functions that issue Load/Store/Compute/Barrier
// calls against a Thread context, and the simulation engine consumes the
// resulting event stream with cycle-accurate interleaving.
//
// Execution is strictly token-passing: at most one thread goroutine runs at
// any instant (the engine resumes one thread, which fills a batch of events
// and parks again). Kernels therefore need no locks even when they share
// slices, and runs are fully deterministic.
//
// A run owns its threads. Closing a Team unwinds every thread still parked,
// so a run that ends early leaves no goroutine behind, and a panic in a
// kernel is re-raised on the goroutine that resumed the thread, where the
// caller's recovery can reach it.
//
// A Team is the only way a workload reaches the engine: every run executes
// the kernels afresh under the engine's own interleaving, so a kernel whose
// accesses depend on it (SPLASH RADIX) is measured on what it really emits.
package trace

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"tlbmap/internal/vm"
)

// Kind discriminates event types in a thread's stream.
type Kind uint8

// Event kinds.
const (
	// Load is a data read of Addr.
	Load Kind = iota
	// Store is a data write of Addr.
	Store
	// Compute models non-memory work: Addr holds the cycle count.
	Compute
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one entry of a thread's access stream.
type Event struct {
	Addr vm.Addr // virtual address, or cycle count for Compute
	Kind Kind
}

// Batch is one quantum of events handed from a thread to the engine.
type Batch struct {
	Events []Event
	// Barrier is set when the thread reached a barrier after Events.
	Barrier bool
	// Done is set when the thread function returned after Events.
	Done bool
}

// DefaultQuantum is the number of events a thread generates before yielding
// to the engine. It bounds the interleaving granularity: smaller values
// interleave threads more finely at the cost of more hand-offs.
const DefaultQuantum = 256

// Program is the body of one simulated thread.
type Program func(t *Thread)

// Thread is the per-thread context a Program runs against. Its methods may
// only be called from the Program's own goroutine.
type Thread struct {
	id      int
	buf     []Event
	quantum int

	out      chan Batch
	resume   chan bool // true asks a parked thread to stop
	panicked *Panic    // set before the final batch of a panicking program
}

// ID returns the thread's index in the team.
func (t *Thread) ID() int { return t.id }

// Load records a data read of addr.
func (t *Thread) Load(addr vm.Addr) { t.emit(Event{Addr: addr, Kind: Load}) }

// Store records a data write of addr.
func (t *Thread) Store(addr vm.Addr) { t.emit(Event{Addr: addr, Kind: Store}) }

// Compute records cycles of non-memory work (arithmetic between accesses).
func (t *Thread) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	t.emit(Event{Addr: vm.Addr(cycles), Kind: Compute})
}

// Barrier synchronizes all threads of the team, like an OpenMP barrier: the
// engine does not run this thread past the barrier until every thread has
// arrived, and arrival aligns the simulated clocks.
func (t *Thread) Barrier() {
	t.yield(Batch{Events: t.buf, Barrier: true})
}

func (t *Thread) emit(e Event) {
	t.buf = append(t.buf, e)
	if len(t.buf) >= t.quantum {
		t.yield(Batch{Events: t.buf})
	}
}

// yield hands the current batch to the engine and parks until resumed.
// The engine owns the Events slice until it resumes the thread.
func (t *Thread) yield(b Batch) {
	t.out <- b
	if !b.Done {
		t.park()
		t.buf = t.buf[:0]
	}
}

// errStopped unwinds the program of a thread whose team was closed while
// the thread was parked; the thread's goroutine recovers it.
var errStopped = errors.New("trace: team closed")

// park waits until the engine resumes the thread or closes its team.
func (t *Thread) park() {
	if <-t.resume {
		panic(errStopped)
	}
}

// Panic is a panic raised by a thread's program. Team.Resume re-raises it
// on the resuming goroutine as a *Panic value.
type Panic struct {
	Thread int    // the panicking thread's ID
	Value  any    // the value passed to panic()
	Stack  []byte // the thread goroutine's stack at the panic site
}

func (p *Panic) Error() string {
	return fmt.Sprintf("trace: thread %d panicked: %v", p.Thread, p.Value)
}

// Team is a set of threads ready to be driven by the engine.
type Team struct {
	Threads []*Thread

	stopped sync.Once
	exited  sync.WaitGroup
}

// NewTeam spawns one goroutine per program. No goroutine starts executing
// until the engine resumes it, preserving the single-token invariant.
// quantum <= 0 selects DefaultQuantum.
func NewTeam(programs []Program, quantum int) *Team {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	n := len(programs)
	team := &Team{Threads: make([]*Thread, n)}
	team.exited.Add(n)
	for i := range programs {
		t := &Thread{
			id:      i,
			quantum: quantum,
			buf:     make([]Event, 0, quantum),
			// Capacity 1 keeps the strict token alternation (the thread
			// still only runs between receiving the token and sending its
			// batch) but turns each hand-off into an asynchronous send plus
			// a wake-up instead of a two-phase rendezvous.
			out:    make(chan Batch, 1),
			resume: make(chan bool, 1),
		}
		team.Threads[i] = t
		go func(p Program, t *Thread) {
			defer team.exited.Done()
			defer func() {
				if r := recover(); r != nil && r != errStopped {
					// The engine is blocked in Resume on this thread.
					t.panicked = &Panic{Thread: t.id, Value: r, Stack: debug.Stack()}
					t.out <- Batch{Done: true}
				}
			}()
			t.park()
			p(t)
			t.yield(Batch{Events: t.buf, Done: true})
		}(programs[i], t)
	}
	return team
}

// Resume lets thread i run until its next yield and returns the batch it
// produced. The caller must fully consume the batch before resuming the
// same thread again. If the thread's program panics, Resume panics with a
// *Panic.
func (tm *Team) Resume(i int) Batch {
	t := tm.Threads[i]
	t.resume <- false
	b := <-t.out
	if t.panicked != nil {
		panic(t.panicked)
	}
	return b
}

// Close unwinds every thread that has not finished and waits for all the
// team's goroutines to exit. It must not be called while a thread runs,
// that is, concurrently with Resume. Close is idempotent.
func (tm *Team) Close() {
	tm.stopped.Do(func() {
		// Every thread is parked or finished, so its resume slot is
		// free: the send never blocks, and a finished thread ignores it.
		for _, t := range tm.Threads {
			t.resume <- true
		}
	})
	tm.exited.Wait()
}

// SPMD builds a team running the same body on every thread, the common
// OpenMP-style single-program-multiple-data case.
func SPMD(n int, body Program, quantum int) *Team {
	programs := make([]Program, n)
	for i := range programs {
		programs[i] = body
	}
	return NewTeam(programs, quantum)
}
