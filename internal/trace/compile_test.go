package trace

import (
	"testing"

	"tlbmap/internal/vm"
)

// drainSource drives a Source with the engine's barrier semantics —
// round-robin, one batch per runnable thread per round, releasing the
// barrier once every alive thread has parked — and returns every batch
// each thread yielded (events deep-copied, since sources may reuse or
// alias storage between resumes).
func drainSource(t *testing.T, src Source) [][]Batch {
	t.Helper()
	n := src.NumThreads()
	out := make([][]Batch, n)
	started := make([]bool, n)
	atBarrier := make([]bool, n)
	done := make([]bool, n)
	alive := n
	for rounds := 0; alive > 0; rounds++ {
		if rounds > 1<<20 {
			t.Fatal("drainSource: no progress")
		}
		ran := false
		for i := 0; i < n; i++ {
			if done[i] || atBarrier[i] {
				continue
			}
			ran = true
			var b Batch
			if !started[i] {
				started[i] = true
				b = src.Start(i)
			} else {
				b = src.Resume(i)
			}
			out[i] = append(out[i], Batch{
				Events:  append([]Event(nil), b.Events...),
				Barrier: b.Barrier,
				Done:    b.Done,
			})
			switch {
			case b.Done:
				done[i] = true
				alive--
			case b.Barrier:
				atBarrier[i] = true
			}
		}
		if !ran {
			released := false
			for i := 0; i < n; i++ {
				if !done[i] && atBarrier[i] {
					atBarrier[i] = false
					released = true
				}
			}
			if !released {
				t.Fatal("drainSource: stuck with threads alive but none runnable")
			}
		}
	}
	return out
}

func batchesEqual(t *testing.T, name string, want, got [][]Batch) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d threads vs %d", name, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: thread %d yielded %d batches, replay yielded %d",
				name, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			if w.Barrier != g.Barrier || w.Done != g.Done || len(w.Events) != len(g.Events) {
				t.Fatalf("%s: thread %d batch %d: want %d events barrier=%v done=%v, got %d/%v/%v",
					name, i, j, len(w.Events), w.Barrier, w.Done, len(g.Events), g.Barrier, g.Done)
			}
			for k := range w.Events {
				if w.Events[k] != g.Events[k] {
					t.Fatalf("%s: thread %d batch %d event %d: want %v, got %v",
						name, i, j, k, w.Events[k], g.Events[k])
				}
			}
		}
	}
}

// batchShape describes one expected batch as (event count, terminator).
type batchShape struct {
	n       int
	barrier bool
	done    bool
}

// TestCompileEdgeCases is the determinism edge-case table the compiler
// must preserve exactly: zero-event threads, barrier as the first event,
// Compute-only streams, quantum sizes that do not divide batch lengths,
// and streams landing exactly on a quantum boundary. For each case it
// checks the recorded batch structure against the expected shape and that
// replay reproduces the goroutine path batch for batch.
func TestCompileEdgeCases(t *testing.T) {
	loads := func(t *Thread, n int) {
		for i := 0; i < n; i++ {
			t.Load(vm.Addr(i * 64))
		}
	}
	cases := []struct {
		name     string
		quantum  int
		programs []Program
		want     [][]batchShape // per thread
	}{
		{
			name:     "zero-event-thread",
			quantum:  4,
			programs: []Program{func(t *Thread) {}},
			want:     [][]batchShape{{{0, false, true}}},
		},
		{
			name:    "zero-event-thread-among-busy",
			quantum: 4,
			programs: []Program{
				func(t *Thread) { loads(t, 3); t.Barrier() },
				func(t *Thread) { t.Barrier() },
			},
			want: [][]batchShape{
				{{3, true, false}, {0, false, true}},
				{{0, true, false}, {0, false, true}},
			},
		},
		{
			name:    "barrier-as-first-event",
			quantum: 4,
			programs: []Program{
				func(t *Thread) { t.Barrier(); loads(t, 2) },
				func(t *Thread) { t.Barrier(); loads(t, 1) },
			},
			want: [][]batchShape{
				{{0, true, false}, {2, false, true}},
				{{0, true, false}, {1, false, true}},
			},
		},
		{
			name:    "compute-only-stream",
			quantum: 3,
			programs: []Program{func(t *Thread) {
				for i := 0; i < 7; i++ {
					t.Compute(10 + uint64(i))
				}
			}},
			want: [][]batchShape{{{3, false, false}, {3, false, false}, {1, false, true}}},
		},
		{
			name:    "quantum-does-not-divide-length",
			quantum: 256,
			programs: []Program{func(t *Thread) {
				loads(t, 300)
			}},
			want: [][]batchShape{{{256, false, false}, {44, false, true}}},
		},
		{
			name:    "exact-quantum-then-barrier",
			quantum: 8,
			programs: []Program{
				func(t *Thread) { loads(t, 8); t.Barrier(); loads(t, 1) },
				func(t *Thread) { t.Barrier() },
			},
			want: [][]batchShape{
				{{8, false, false}, {0, true, false}, {1, false, true}},
				{{0, true, false}, {0, false, true}},
			},
		},
		{
			name:     "exact-quantum-then-done",
			quantum:  8,
			programs: []Program{func(t *Thread) { loads(t, 16) }},
			want:     [][]batchShape{{{8, false, false}, {8, false, false}, {0, false, true}}},
		},
		{
			name:    "uneven-exit-across-phases",
			quantum: 4,
			programs: []Program{
				func(t *Thread) { loads(t, 2); t.Barrier(); loads(t, 1) },
				func(t *Thread) { loads(t, 1); t.Barrier(); loads(t, 2); t.Barrier(); loads(t, 3) },
			},
			want: [][]batchShape{
				{{2, true, false}, {1, false, true}},
				{{1, true, false}, {2, true, false}, {3, false, true}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Compile(NewTeam(tc.programs, tc.quantum))
			if c.NumThreads() != len(tc.programs) {
				t.Fatalf("NumThreads = %d, want %d", c.NumThreads(), len(tc.programs))
			}
			var wantTotal uint64
			for i, shapes := range tc.want {
				if got := c.Batches(i); got != len(shapes) {
					t.Fatalf("thread %d: %d batches recorded, want %d", i, got, len(shapes))
				}
				prev := 0
				for j, s := range shapes {
					m := c.marks[i][j]
					if m.end-prev != s.n || m.barrier != s.barrier || m.done != s.done {
						t.Fatalf("thread %d batch %d: recorded (%d events, barrier=%v, done=%v), want (%d, %v, %v)",
							i, j, m.end-prev, m.barrier, m.done, s.n, s.barrier, s.done)
					}
					prev = m.end
					wantTotal += uint64(s.n)
				}
				if len(c.ThreadEvents(i)) != prev {
					t.Fatalf("thread %d: flat stream has %d events, marks cover %d",
						i, len(c.ThreadEvents(i)), prev)
				}
			}
			if c.NumEvents() != wantTotal {
				t.Fatalf("NumEvents = %d, want %d", c.NumEvents(), wantTotal)
			}
			// Replay must reproduce the goroutine path batch for batch.
			ref := drainSource(t, NewTeam(tc.programs, tc.quantum))
			batchesEqual(t, tc.name, ref, drainSource(t, c.NewSource()))
			// A reset cursor serves the identical sequence again.
			r := c.NewSource()
			drainSource(t, r)
			r.Reset()
			batchesEqual(t, tc.name+"/reset", ref, drainSource(t, r))
		})
	}
}

// TestCompileMatchesGoroutineBatches runs a multi-phase SPMD kernel with
// stores, computes and barriers through both paths and compares every
// batch, including with a quantum that does not divide the phase lengths.
func TestCompileMatchesGoroutineBatches(t *testing.T) {
	body := func(t *Thread) {
		id := t.ID()
		for phase := 0; phase < 3; phase++ {
			for i := 0; i < 37+13*id; i++ {
				a := vm.Addr((id*1024 + i*64 + phase) % (1 << 16))
				if i%3 == 0 {
					t.Store(a)
				} else {
					t.Load(a)
				}
				if i%5 == 0 {
					t.Compute(uint64(7 + i%11))
				}
			}
			t.Barrier()
		}
	}
	for _, quantum := range []int{7, 64, 256} {
		c := Compile(SPMD(4, body, quantum))
		ref := drainSource(t, SPMD(4, body, quantum))
		batchesEqual(t, "spmd", ref, drainSource(t, c.NewSource()))
	}
}

// TestCompileCheckedDetectsScheduleDependence verifies that a kernel whose
// emissions depend on cross-thread timing within a barrier phase is
// rejected, while a race-free kernel compiles clean.
func TestCompileCheckedDetectsScheduleDependence(t *testing.T) {
	racy := func() *Team {
		shared := 0
		return NewTeam([]Program{
			func(t *Thread) { shared = 1; t.Barrier() },
			func(t *Thread) {
				// Emits a different stream depending on whether thread 0
				// ran first within this phase.
				for i := 0; i <= shared; i++ {
					t.Load(vm.Addr(i * 64))
				}
				t.Barrier()
			},
		}, 16)
	}
	if _, err := CompileChecked(racy); err == nil {
		t.Fatal("CompileChecked accepted a schedule-dependent kernel")
	}
	clean := func() *Team {
		return SPMD(3, func(t *Thread) {
			for i := 0; i < 10; i++ {
				t.Load(vm.Addr(t.ID()*4096 + i*64))
			}
			t.Barrier()
			t.Compute(100)
		}, 4)
	}
	c, err := CompileChecked(clean)
	if err != nil {
		t.Fatalf("CompileChecked rejected a race-free kernel: %v", err)
	}
	batchesEqual(t, "checked", drainSource(t, clean()), drainSource(t, c.NewSource()))
}

// TestReplayResumePastDonePanics pins the driver-bug guard.
func TestReplayResumePastDonePanics(t *testing.T) {
	c := Compile(NewTeam([]Program{func(t *Thread) {}}, 4))
	r := c.NewSource()
	if b := r.Start(0); !b.Done {
		t.Fatalf("first batch of an empty thread should be Done, got %+v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Resume past Done did not panic")
		}
	}()
	r.Resume(0)
}

// TestConcurrentReplayCursors interleaves two cursors over one Compiled
// and checks they serve identical, independent sequences — the
// compile-once/replay-many contract the harness relies on.
func TestConcurrentReplayCursors(t *testing.T) {
	body := func(t *Thread) {
		for i := 0; i < 50; i++ {
			t.Load(vm.Addr(i * 64))
		}
		t.Barrier()
		t.Store(vm.Addr(0))
	}
	c := Compile(SPMD(2, body, 16))
	a, b := c.NewSource(), c.NewSource()
	// Advance cursor a by one batch first, then drain both fully: the
	// partially advanced cursor must be unaffected by b's progress.
	first := a.Start(0)
	ref := drainSource(t, c.NewSource())
	if len(first.Events) != len(ref[0][0].Events) {
		t.Fatalf("cursor a first batch has %d events, want %d", len(first.Events), len(ref[0][0].Events))
	}
	batchesEqual(t, "cursor-b", ref, drainSource(t, b))
	a.Reset()
	batchesEqual(t, "cursor-a", ref, drainSource(t, a))
}
