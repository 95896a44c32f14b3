// Package splash implements SPLASH-2-style kernels as a second workload
// suite. The paper's related work (Section II, [7] Barrow-Williams et al.,
// [8] Bienia et al.) characterizes the communication of SPLASH-2 and
// PARSEC; running the TLB mechanisms over these kernels shows that the
// detector and mapper are not NPB-specific and exposes pattern shapes NPB
// does not have:
//
//   - OCEAN: 2-D block decomposition — neighbours both one and four thread
//     IDs apart (a pattern a naive "adjacent IDs" heuristic misses but the
//     matching mapper handles).
//   - LUC (contiguous blocked dense LU): a rotating hub pattern — the
//     owner of the current diagonal block communicates with everyone, and
//     the hub moves every step.
//   - RADIX: scatter-heavy permutation with homogeneous communication.
//   - WATER: all-pairs n-body — every thread reads every other thread's
//     molecules (homogeneous, read-dominated).
//   - BARNES: spatially-sorted bodies with local interactions plus a
//     shared tree summary (domain decomposition over an all-threads
//     background).
package splash

import (
	"fmt"
	"sort"

	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// Class selects the problem size.
type Class string

const (
	// ClassS is a tiny size for unit tests.
	ClassS Class = "S"
	// ClassW is the evaluation size.
	ClassW Class = "W"
)

// Pattern classifies the expected communication structure.
type Pattern string

// Expected patterns of the suite.
const (
	BlockDecomposition Pattern = "2d-block-decomposition"
	RotatingHub        Pattern = "rotating-hub"
	Homogeneous        Pattern = "homogeneous"
	LocalPlusShared    Pattern = "local+shared-summary"
)

// Params configures one kernel instance.
type Params struct {
	Threads int
	Class   Class
	Seed    int64
}

func (p Params) withDefaults() Params {
	if p.Threads == 0 {
		p.Threads = 8
	}
	if p.Class == "" {
		p.Class = ClassW
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Builder constructs the per-thread programs of a kernel.
type Builder func(as *vm.AddressSpace, p Params) []trace.Program

// Benchmark describes one registered kernel.
type Benchmark struct {
	Name        string
	Description string
	Expected    Pattern
	Build       Builder
}

var registry = map[string]Benchmark{}

func register(b Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("splash: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// Get returns a registered kernel by name.
func Get(name string) (Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("splash: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered kernel names in alphabetical order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered kernel in name order.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// slab partitions n items across parts workers.
func slab(n, parts, who int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = who*base + min(who, rem)
	hi = lo + base
	if who < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func spmd(n int, body trace.Program) []trace.Program {
	progs := make([]trace.Program, n)
	for i := range progs {
		progs[i] = body
	}
	return progs
}

// lcg is the suite's deterministic pseudo-random generator.
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &lcg{state: s}
}

func (r *lcg) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

func (r *lcg) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
