package trace

import (
	"testing"

	"tlbmap/internal/vm"
)

// drainBatches runs a team to completion with the engine's barrier
// semantics — round-robin, one batch per runnable thread per round, the
// barrier released once every live thread has parked at it — and returns
// every batch each thread yielded. Events are copied: a thread reuses its
// buffer once resumed.
func drainBatches(t *testing.T, team *Team) [][]Batch {
	t.Helper()
	n := len(team.Threads)
	out := make([][]Batch, n)
	parked := make([]bool, n)
	done := make([]bool, n)
	for alive, rounds := n, 0; alive > 0; rounds++ {
		if rounds > 1<<20 {
			t.Fatal("drainBatches: no progress")
		}
		ran := false
		for i := 0; i < n; i++ {
			if done[i] || parked[i] {
				continue
			}
			ran = true
			b := team.Resume(i)
			out[i] = append(out[i], Batch{
				Events:  append([]Event(nil), b.Events...),
				Barrier: b.Barrier,
				Done:    b.Done,
			})
			done[i], parked[i] = b.Done, b.Barrier
			if b.Done {
				alive--
			}
		}
		if !ran {
			// Every live thread is parked: release the barrier.
			for i := range parked {
				parked[i] = false
			}
		}
	}
	return out
}

// drain runs a team to completion and returns every event per thread.
func drain(t *testing.T, team *Team) [][]Event {
	t.Helper()
	events := make([][]Event, len(team.Threads))
	for i, batches := range drainBatches(t, team) {
		for _, b := range batches {
			events[i] = append(events[i], b.Events...)
		}
	}
	return events
}

// batchShape describes one expected batch as (event count, terminator).
type batchShape struct {
	n       int
	barrier bool
	done    bool
}

// TestTeamBatchShapes pins the batch sequence a team yields to the engine
// in the edge cases the scheduler's barrier and done handling depend on:
// zero-event threads, a barrier as the first event, Compute-only streams,
// quanta that do not divide the stream, an exact quantum followed by a
// barrier or by the end, and threads exiting in different phases.
func TestTeamBatchShapes(t *testing.T) {
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
			got := drainBatches(t, NewTeam(tc.programs, tc.quantum))
			for i, shapes := range tc.want {
				if len(got[i]) != len(shapes) {
					t.Fatalf("thread %d yielded %d batches, want %d", i, len(got[i]), len(shapes))
				}
				for j, s := range shapes {
					b := got[i][j]
					if len(b.Events) != s.n || b.Barrier != s.barrier || b.Done != s.done {
						t.Fatalf("thread %d batch %d: (%d events, barrier=%v, done=%v), want (%d, %v, %v)",
							i, j, len(b.Events), b.Barrier, b.Done, s.n, s.barrier, s.done)
					}
				}
			}
		})
	}
}

func TestThreadEventStream(t *testing.T) {
	team := NewTeam([]Program{func(th *Thread) {
		th.Load(100)
		th.Store(200)
		th.Compute(5)
		th.Compute(0) // zero compute emits nothing
	}}, 8)
	evs := drain(t, team)[0]
	want := []Event{
		{Addr: 100, Kind: Load},
		{Addr: 200, Kind: Store},
		{Addr: 5, Kind: Compute},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestQuantumFlush(t *testing.T) {
	const q = 4
	team := NewTeam([]Program{func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Load(vm.Addr(i))
		}
	}}, q)
	// First batch must contain exactly q events.
	b := team.Resume(0)
	if len(b.Events) != q || b.Done || b.Barrier {
		t.Fatalf("first batch: %d events done=%v barrier=%v", len(b.Events), b.Done, b.Barrier)
	}
	b = team.Resume(0)
	if len(b.Events) != q {
		t.Fatalf("second batch: %d events", len(b.Events))
	}
	b = team.Resume(0)
	if len(b.Events) != 2 || !b.Done {
		t.Fatalf("final batch: %d events done=%v", len(b.Events), b.Done)
	}
}

func TestBarrierBatchFlag(t *testing.T) {
	team := NewTeam([]Program{func(th *Thread) {
		th.Load(1)
		th.Barrier()
		th.Load(2)
	}}, 16)
	b := team.Resume(0)
	if !b.Barrier || len(b.Events) != 1 {
		t.Fatalf("barrier batch: %+v", b)
	}
	b = team.Resume(0)
	if !b.Done || len(b.Events) != 1 || b.Events[0].Addr != 2 {
		t.Fatalf("final batch: %+v", b)
	}
}

func TestSPMDIdentity(t *testing.T) {
	team := SPMD(4, func(th *Thread) {
		th.Load(vm.Addr(th.ID()))
	}, 0)
	if len(team.Threads) != 4 {
		t.Fatalf("team of %d threads, want 4", len(team.Threads))
	}
	evs := drain(t, team)
	for i := 0; i < 4; i++ {
		if len(evs[i]) != 1 || evs[i][0].Addr != vm.Addr(i) {
			t.Errorf("thread %d events = %v", i, evs[i])
		}
	}
}

func TestSingleTokenExecution(t *testing.T) {
	// With token passing, only one goroutine runs at a time, so an
	// unsynchronized shared counter must still count exactly.
	counter := 0
	team := SPMD(8, func(th *Thread) {
		for i := 0; i < 100; i++ {
			counter++
			th.Compute(1)
		}
	}, 16)
	drain(t, team)
	if counter != 800 {
		t.Errorf("counter = %d, want 800 (data race in token passing?)", counter)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Compute.String() != "compute" {
		t.Error("kind names")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind")
	}
}

func TestF64Array(t *testing.T) {
	as := vm.NewAddressSpace()
	a := NewF64(as, 10)
	if a.Len() != 10 {
		t.Fatal("len")
	}
	if a.Addr(0).Offset() != 0 {
		t.Error("array not page aligned")
	}
	if a.Addr(3) != a.Addr(0)+24 {
		t.Error("element addressing wrong")
	}
	b := NewF64(as, 10)
	if a.Addr(9).Page() == b.Addr(0).Page() {
		t.Error("arrays share a page")
	}
	// Traced ops compute real values.
	var got []Event
	team := NewTeam([]Program{func(th *Thread) {
		a.Set(th, 2, 1.5)
		a.Add(th, 2, 2.0)
		if v := a.Get(th, 2); v != 3.5 {
			t.Errorf("value = %v, want 3.5", v)
		}
	}}, 64)
	got = drain(t, team)[0]
	// Set: 1 store; Add: load+store; Get: 1 load.
	kinds := []Kind{Store, Load, Store, Load}
	if len(got) != len(kinds) {
		t.Fatalf("events = %v", got)
	}
	for i, k := range kinds {
		if got[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, got[i].Kind, k)
		}
		if got[i].Addr != a.Addr(2) {
			t.Errorf("event %d addr = %v", i, got[i].Addr)
		}
	}
	// Untraced access.
	a.Poke(5, 9)
	if a.data[5] != 9 {
		t.Error("poke")
	}
}

func TestI64Array(t *testing.T) {
	as := vm.NewAddressSpace()
	a := NewI64(as, 4)
	team := NewTeam([]Program{func(th *Thread) {
		a.Set(th, 0, 7)
		a.Add(th, 0, 3)
		if a.Get(th, 0) != 10 {
			t.Error("i64 arithmetic")
		}
	}}, 64)
	drain(t, team)
	if a.data[0] != 10 {
		t.Error("value lost")
	}
	a.Poke(1, -5)
	if a.data[1] != -5 {
		t.Error("poke")
	}
}

func TestGrid3Indexing(t *testing.T) {
	as := vm.NewAddressSpace()
	g := NewGrid3(as, 4, 3, 2)
	if g.Index(0, 0, 0) != 0 || g.Index(1, 0, 0) != 6 || g.Index(0, 1, 0) != 2 || g.Index(0, 0, 1) != 1 {
		t.Error("z-major indexing wrong")
	}
	g.Poke(3, 2, 1, 42)
	if g.arr.data[g.Index(3, 2, 1)] != 42 {
		t.Error("poke")
	}
	if g.arr.Len() != 24 {
		t.Error("grid length")
	}
	team := NewTeam([]Program{func(th *Thread) {
		g.Set(th, 1, 1, 1, 5)
		g.Add(th, 1, 1, 1, 1)
		if g.Get(th, 1, 1, 1) != 6 {
			t.Error("grid arithmetic")
		}
	}}, 64)
	drain(t, team)
}

func TestGrid3PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad grid accepted")
		}
	}()
	NewGrid3(vm.NewAddressSpace(), 0, 1, 1)
}

func TestMatrix2(t *testing.T) {
	as := vm.NewAddressSpace()
	m := NewMatrix2(as, 3, 4)
	if m.Index(2, 3) != 11 {
		t.Error("row-major indexing")
	}
	m.Poke(1, 2, 8)
	if m.arr.data[m.Index(1, 2)] != 8 {
		t.Error("poke")
	}
	if m.arr.Len() != 12 {
		t.Error("matrix length")
	}
	team := NewTeam([]Program{func(th *Thread) {
		m.Set(th, 0, 0, 3)
		if m.Get(th, 0, 0) != 3 {
			t.Error("matrix get/set")
		}
	}}, 64)
	drain(t, team)
}

func TestMatrix2PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad matrix accepted")
		}
	}()
	NewMatrix2(vm.NewAddressSpace(), 1, 0)
}

// TestCloseUnwindsParkedThreads closes a team with one thread parked
// mid-program and one never started: both goroutines must exit, running
// the parked program's deferred calls, and a second Close is a no-op.
func TestCloseUnwindsParkedThreads(t *testing.T) {
	unwound := false
	team := NewTeam([]Program{
		func(th *Thread) {
			defer func() { unwound = true }()
			th.Load(1)
			th.Barrier()
			t.Error("thread 0 ran past its barrier after Close")
		},
		func(th *Thread) { t.Error("thread 1 ran after Close") },
	}, 0)
	if b := team.Resume(0); !b.Barrier {
		t.Fatalf("first batch %+v, want the barrier", b)
	}
	team.Close()
	team.Close()
	if !unwound {
		t.Error("Close returned before the parked program unwound")
	}
}

// BenchmarkTeamHandoff measures one engine-thread round trip: a
// quantum-1 thread yields after every event, so each Resume is one
// hand-off to the thread's goroutine and back.
func BenchmarkTeamHandoff(b *testing.B) {
	team := NewTeam([]Program{func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Load(vm.Addr(i))
		}
	}}, 1)
	b.ResetTimer()
	for bt := team.Resume(0); !bt.Done; bt = team.Resume(0) {
	}
}
