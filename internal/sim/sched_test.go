package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/metrics"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// linearPick is the original Θ(threads) scheduler selection, retained as
// the reference implementation the ready queue is checked against: the
// smallest clock among runnable threads, equal clocks to the lowest index.
func linearPick(states []threadState) int {
	best := -1
	for i := range states {
		st := &states[i]
		if st.done || st.atBarrier {
			continue
		}
		if best == -1 || st.clock < states[best].clock {
			best = i
		}
	}
	return best
}

// schedDigest is a Checker that folds everything a run makes observable
// into one SHA-256: every retired access and every migration, in the order
// the engine reported them, then the final Result (see result). Two runs
// with equal digests interleaved their threads identically.
type schedDigest struct {
	h hash.Hash
}

func (d *schedDigest) Begin(CheckEnv) {}

func (d *schedDigest) OnAccess(thread, core int, ev trace.Event, frame vm.Frame) error {
	b := []byte{'A'}
	b = binary.LittleEndian.AppendUint32(b, uint32(thread))
	b = binary.LittleEndian.AppendUint32(b, uint32(core))
	b = append(b, byte(ev.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Addr))
	b = binary.LittleEndian.AppendUint64(b, uint64(frame))
	d.h.Write(b)
	return nil
}

func (d *schedDigest) OnMigration(now uint64, placement []int) error {
	b := binary.LittleEndian.AppendUint64([]byte{'M'}, now)
	d.h.Write(appendInts(b, placement))
	return nil
}

func (d *schedDigest) Finish(*Result) error { return nil }

// result folds every field of res into the digest and returns it in hex.
// Counter banks contribute the events up to RemoteMemAccesses: the ones
// the golden digests were recorded with.
func (d *schedDigest) result(res *Result) string {
	b := binary.LittleEndian.AppendUint64([]byte{'R'}, res.Cycles)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.CoreCycles)))
	for _, c := range res.CoreCycles {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	banks := append([]metrics.Counters{res.Counters}, res.PerCore...)
	for k := range banks {
		for e := metrics.Event(0); e <= metrics.RemoteMemAccesses; e++ {
			b = binary.LittleEndian.AppendUint64(b, banks[k].Get(e))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, res.Accesses)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.TLBMissRate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.DetectionOverhead))
	if res.Matrix == nil {
		b = append(b, 0)
	} else {
		b = res.Matrix.AppendBinary(append(b, 1))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Detector)))
	b = append(b, res.Detector...)
	b = appendInts(b, res.Placement)
	b = binary.LittleEndian.AppendUint64(b, uint64(res.Migrations))
	d.h.Write(b)
	return hex.EncodeToString(d.h.Sum(nil))
}

// appendInts appends a length-prefixed int slice.
func appendInts(b []byte, xs []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// schedWorkload builds a fresh seeded random team (traces are consumed by a
// run, so each run rebuilds). All threads share the barrier phase count, so
// barriers always match up; within a phase each thread draws its own mix of
// accesses and compute from a thread-derived seed.
func schedWorkload(seed int64, n int) (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	shape := rand.New(rand.NewSource(seed))
	arr := trace.NewF64(as, 2048+shape.Intn(4096))
	phases := 1 + shape.Intn(4)
	quantum := 32 + shape.Intn(96) // small quanta: frequent refills
	team := trace.SPMD(n, func(th *trace.Thread) {
		rng := rand.New(rand.NewSource(seed ^ int64(th.ID())*0x9e3779b9))
		for p := 0; p < phases; p++ {
			steps := 50 + rng.Intn(300)
			for s := 0; s < steps; s++ {
				switch rng.Intn(4) {
				case 0:
					th.Compute(uint64(1 + rng.Intn(500)))
				case 1:
					arr.Set(th, rng.Intn(arr.Len()), 1)
				default:
					arr.Get(th, rng.Intn(arr.Len()))
				}
			}
			th.Barrier()
		}
	}, quantum)
	return as, team
}

// schedConfig derives a run config from the trial number, cycling through
// detector modes and toggling jitter and migration so the trials cover
// barrier park/release, uniform HM scan charges, per-thread SM miss
// charges and migration clock bumps.
func schedConfig(trial int, seed int64, machine *topology.Machine) Config {
	n := machine.NumCores()
	cfg := Config{Machine: machine}
	switch trial % 3 {
	case 0:
		// NullDetector fast path.
	case 1:
		cfg.Detector = comm.NewSMDetector(n, 1)
		cfg.TLBMode = tlb.SoftwareManaged
	case 2:
		cfg.Detector = comm.NewHMDetector(n, 2000)
	}
	if trial%2 == 0 {
		cfg.JitterSeed = seed | 1
	}
	if trial%4 < 2 {
		// Deterministic random shuffles on a short interval; the RNG is
		// rebuilt per run so every run of a trial sees the same moves.
		mig := rand.New(rand.NewSource(seed ^ 0x736368656432))
		cfg.MigrationInterval = 30_000
		cfg.Migrator = func(now uint64, placement []int) []int {
			if mig.Intn(2) == 0 {
				return nil
			}
			next := append([]int(nil), placement...)
			mig.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
			return next
		}
	}
	return cfg
}

// schedTrial is one seeded scheduler trial.
type schedTrial struct {
	name    string
	trial   int
	seed    int64
	machine *topology.Machine
}

// schedTrials lists the trials of sched_linear.golden: 24 on the 8-core
// Harpertown (the ready queue's flat representation) and 6 at 48 threads
// on a one-core-per-chip machine (its binary heap).
func schedTrials() []schedTrial {
	var trials []schedTrial
	for trial := 0; trial < 24; trial++ {
		trials = append(trials, schedTrial{fmt.Sprintf("harpertown-%02d", trial),
			trial, int64(1000 + 7919*trial), topology.Harpertown()})
	}
	for trial := 0; trial < 6; trial++ {
		trials = append(trials, schedTrial{fmt.Sprintf("odd48-%02d", trial),
			trial, int64(4800 + 7919*trial), oddMachine(48)})
	}
	return trials
}

// digest runs the trial and returns its schedDigest.
func (tr schedTrial) digest(t *testing.T) string {
	t.Helper()
	as, team := schedWorkload(tr.seed, tr.machine.NumCores())
	cfg := schedConfig(tr.trial, tr.seed, tr.machine)
	d := &schedDigest{h: sha256.New()}
	cfg.Checker = d
	res, err := Run(cfg, as, team)
	if err != nil {
		t.Fatalf("%s: %v", tr.name, err)
	}
	return d.result(res)
}

// TestHeapSchedulerMatchesLinear pins the engine's event order to the
// original linear-scan scheduler. testdata/sched_linear.golden is a frozen
// oracle: one digest per seeded trial, recorded with the engine selecting
// every event by linearPick (one event per span, no ready queue). Each
// trial must reproduce its digest — the same retired-access stream,
// migration placements and Result — across detectors, jitter, barriers
// and migrations, under both representations of the ready queue.
func TestHeapSchedulerMatchesLinear(t *testing.T) {
	data, err := os.ReadFile("testdata/sched_linear.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string) // "name sha256" lines, '#' comments
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sum
	}
	trials := schedTrials()
	if len(want) != len(trials) {
		t.Fatalf("golden has %d digests, want %d", len(want), len(trials))
	}
	for _, tr := range trials {
		if got := tr.digest(t); got != want[tr.name] {
			t.Errorf("%s: digest %s, golden %s", tr.name, got, want[tr.name])
		}
	}
}

// TestSchedHeapOrdering drives the ready queue directly through random
// push/remove/fix/fixAndPick/addAll sequences at sizes on both sides of
// flatSchedMax, and after every operation checks peek, pick, nextKey (and
// fixAndPick's own answer) against the linear reference. The queue size is
// steered toward random targets so the heap passes through every size
// from empty to full.
func TestSchedHeapOrdering(t *testing.T) {
	for _, n := range []int{1, 8, 31, 32, 33, 64, 257} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(99 + n)))
			states := make([]threadState, n)
			h := newSchedHeap(states)
			if h.flat != (n <= flatSchedMax) {
				t.Fatalf("flat = %v at %d threads", h.flat, n)
			}
			queued := make([]bool, n)
			size := 0
			// The packed (clock, id) key, restated from newSchedHeap.
			idBits := uint(bits.Len(uint(n)))
			key := func(i int) uint64 { return states[i].clock<<idBits | uint64(i) }
			// ref is the linear reference: the pick (the engine's done
			// flag masks threads outside the queue) and the smallest key
			// among the other queued threads.
			ref := func() (int, uint64) {
				for i := range states {
					states[i].done = !queued[i]
				}
				pick := linearPick(states)
				next := ^uint64(0)
				for i := range states {
					if queued[i] && i != pick && key(i) < next {
						next = key(i)
					}
				}
				return pick, next
			}
			// find returns the first thread at or after from (wrapping)
			// whose membership is want, or -1.
			find := func(from int, want bool) int {
				for k := 0; k < n; k++ {
					if j := (from + k) % n; queued[j] == want {
						return j
					}
				}
				return -1
			}
			var base uint64 // sum of addAll deltas: keeps clocks in a tie-rich band
			move := func(i int) {
				if rng.Intn(2) == 0 {
					states[i].clock += uint64(rng.Intn(6))
				} else {
					states[i].clock = base + uint64(rng.Intn(8))
				}
			}
			for i := range states {
				states[i].clock = uint64(rng.Intn(8))
				h.push(i)
				queued[i] = true
				size++
			}
			target := n
			for op := 0; op < 6000; op++ {
				if op%200 == 0 {
					target = rng.Intn(n + 1)
					if rng.Intn(2) == 0 {
						target = rng.Intn(min(n, 3) + 1)
					}
				}
				i := rng.Intn(n)
				switch r := rng.Intn(10); {
				case r < 3:
					switch {
					case size > target:
						j := find(i, true)
						h.remove(j)
						queued[j] = false
						size--
					case size < target:
						j := find(i, false)
						h.push(j)
						queued[j] = true
						size++
					default:
						// Removing an absent thread is a no-op.
						if j := find(i, false); j >= 0 {
							h.remove(j)
						}
					}
				case r < 6:
					move(i)
					h.fix(i)
				case r < 9:
					move(i)
					got, gotNext := h.fixAndPick(i)
					if want, wantNext := ref(); got != want || gotNext != wantNext {
						t.Fatalf("op %d: fixAndPick(%d) = (%d, %#x), linear reference (%d, %#x)",
							op, i, got, gotNext, want, wantNext)
					}
				default:
					delta := uint64(1 + rng.Intn(3))
					base += delta
					for j := range states {
						states[j].clock += delta
					}
					h.addAll(delta)
				}
				want, wantNext := ref()
				if got := h.peek(); got != want {
					t.Fatalf("op %d: peek = %d, linear reference %d", op, got, want)
				}
				if got, gotNext := h.pick(); got != want || gotNext != wantNext {
					t.Fatalf("op %d: pick = (%d, %#x), linear reference (%d, %#x)",
						op, got, gotNext, want, wantNext)
				}
				if got := h.nextKey(); got != wantNext {
					t.Fatalf("op %d: nextKey = %#x, linear reference %#x", op, got, wantNext)
				}
			}
		})
	}
}

// TestSchedKeyOverflowPanics checks that a clock too large for the packed
// key fails loudly instead of wrapping into another thread's order.
func TestSchedKeyOverflowPanics(t *testing.T) {
	states := make([]threadState, 2) // 2 id bits: clocks must stay below 2^62
	states[1].clock = 1 << 62
	h := newSchedHeap(states)
	defer func() {
		if recover() == nil {
			t.Fatal("push of an overflowing clock did not panic")
		}
	}()
	h.push(1)
}

// TestFrameBitset checks the bitset against a map across growth.
func TestFrameBitset(t *testing.T) {
	b := newFrameBitset(10)
	ref := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 5000; op++ {
		f := uint64(rng.Intn(3000))
		if got := b.test(f); got != ref[f] {
			t.Fatalf("op %d: test(%d) = %v, want %v", op, f, got, ref[f])
		}
		if rng.Intn(2) == 0 {
			b.set(f)
			ref[f] = true
		}
	}
}
