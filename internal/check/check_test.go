package check

import (
	"fmt"
	"strings"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/mem"
	"tlbmap/internal/sim"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// testEnv builds a minimal but real CheckEnv for driving Suite hooks
// directly — the bug-injection tests below prove each checker actually
// fires on the violation class it exists to catch.
func testEnv() sim.CheckEnv {
	m := topology.Harpertown()
	n := m.NumCores()
	tlbs := make([]*tlb.TLB, n)
	placement := make([]int, n)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.DefaultConfig)
		placement[i] = i
	}
	return sim.CheckEnv{
		Machine:   m,
		AS:        vm.NewAddressSpace(),
		System:    mem.NewSystem(m, mem.DefaultL1Config, mem.DefaultL2Config),
		TLB:       func(core int) *tlb.TLB { return tlbs[core] },
		View:      comm.NewTLBView(tlbs),
		Placement: placement,
	}
}

func newTestSuite() *Suite {
	s := NewSuite()
	s.Begin(testEnv())
	return s
}

// hasViolation reports whether some recorded violation came from the named
// checker and mentions the substring.
func hasViolation(s *Suite, checker, substr string) bool {
	for _, v := range s.Violations() {
		if v.Checker == checker && strings.Contains(v.Msg, substr) {
			return true
		}
	}
	return false
}

func wantViolation(t *testing.T, s *Suite, checker, substr string) {
	t.Helper()
	if !hasViolation(s, checker, substr) {
		t.Errorf("expected a %q violation mentioning %q, got %v", checker, substr, s.Violations())
	}
}

func TestCleanSuiteReportsNoError(t *testing.T) {
	s := newTestSuite()
	if err := s.CheckNow(); err != nil {
		t.Fatalf("fresh suite reports violations: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err() on clean suite: %v", err)
	}
}

func TestMESICatchesDoubleOwner(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0x40)
	// Two L2 domains install the same line in Modified state: an
	// impossible MESI configuration the checker must reject.
	s.OnL2Install(0, l, mem.Modified, mem.SrcMemory, -1)
	s.OnL2Install(1, l, mem.Modified, mem.SrcMemory, -1)
	wantViolation(t, s, "mesi", "owner")
}

func TestMESICatchesModifiedPlusShared(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0x80)
	s.OnL2Install(0, l, mem.Modified, mem.SrcMemory, -1)
	s.OnL2Install(2, l, mem.Shared, mem.SrcMemory, -1)
	wantViolation(t, s, "mesi", "owner")
}

func TestMESICatchesUnreportedTransition(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0xc0)
	s.OnL2Install(0, l, mem.Shared, mem.SrcMemory, -1)
	// The transition claims the line was Exclusive; the shadow knows it
	// was Shared — some earlier transition must have gone unreported.
	s.OnL2State(0, l, mem.Exclusive, mem.Modified)
	wantViolation(t, s, "mesi", "shadow")
}

func TestMESICatchesL1InclusionBreach(t *testing.T) {
	s := newTestSuite()
	// An L1 fill with no backing copy in the core's L2 domain.
	s.OnL1Install(3, mem.Line(0x100))
	wantViolation(t, s, "mesi", "without a copy")
}

func TestMESICatchesWriteLeavingForeignL1Copy(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0x140)
	// Core 7's domain holds the line Shared with an L1 copy; core 0
	// upgrades and writes, but the invalidation never drops core 7's L1
	// copy — the checker must see the stale private copy.
	s.OnL2Install(s.env.Machine.L2Domain(7), l, mem.Shared, mem.SrcMemory, -1)
	s.OnL1Install(7, l)
	s.OnL2Install(s.env.Machine.L2Domain(0), l, mem.Modified, mem.SrcMemory, -1)
	s.OnWrite(0, l, mem.SrcMemory, -1)
	wantViolation(t, s, "mesi", "live L1 copy")
}

func TestOracleCatchesStaleLoad(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0x180)
	d0 := s.env.Machine.L2Domain(0)
	// Core 0 writes the line (version 1)...
	s.OnL2Install(d0, l, mem.Modified, mem.SrcMemory, -1)
	s.OnWrite(0, l, mem.SrcMemory, -1)
	// ...then core 6's domain fills the stale version from memory (the
	// dirty copy was never written back or forwarded) and serves a load.
	d3 := s.env.Machine.L2Domain(6)
	s.OnL2Install(d3, l, mem.Exclusive, mem.SrcMemory, -1)
	s.OnRead(6, l, mem.SrcL2, -1)
	wantViolation(t, s, "oracle", "stale load")
}

func TestOracleCatchesLostWriteBack(t *testing.T) {
	s := newTestSuite()
	l := mem.Line(0x1c0)
	d0 := s.env.Machine.L2Domain(0)
	s.OnL2Install(d0, l, mem.Modified, mem.SrcMemory, -1)
	s.OnWrite(0, l, mem.SrcMemory, -1)
	// The dirty line is evicted with no preceding write-back: the only
	// copy of version 1 evaporates. The final-image check must notice.
	s.OnL2Evict(d0, l, mem.Modified)
	s.oracle.finish()
	wantViolation(t, s, "oracle", "final image")
}

func TestOracleCatchesServeWithoutCopy(t *testing.T) {
	s := newTestSuite()
	// A load reported as an L1 hit on a core whose L1 never installed
	// the line.
	s.OnRead(2, mem.Line(0x200), mem.SrcL1, -1)
	wantViolation(t, s, "oracle", "no such copy")
}

func TestTLBCatchesBogusEntry(t *testing.T) {
	s := newTestSuite()
	// Hand-plant a TLB entry for a page the VM layer never allocated.
	s.env.TLB(4).Insert(vm.Translation{Page: vm.Page(0xdead), Frame: vm.Frame(7)})
	if err := s.CheckNow(); err == nil {
		t.Fatal("CheckNow accepted a TLB entry for an unallocated page")
	}
	wantViolation(t, s, "tlb", "never allocated")
}

func TestTLBCatchesWrongFrame(t *testing.T) {
	env := testEnv()
	addr := env.AS.Alloc(4096)
	tr, err := env.AS.Translate(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.Begin(env)
	// Correct page, wrong frame: a stale entry surviving a remap.
	env.TLB(1).Insert(vm.Translation{Page: tr.Page, Frame: tr.Frame + 1})
	if err := s.CheckNow(); err == nil {
		t.Fatal("CheckNow accepted a TLB entry with the wrong frame")
	}
	wantViolation(t, s, "tlb", "page table says")
}

func TestTLBCatchesBrokenDetectorView(t *testing.T) {
	env := testEnv()
	// The detector view names thread 0 on core 5 as well as on core 0.
	env.View.ThreadOf[5] = 0
	s := NewSuite()
	s.Begin(env)
	wantViolation(t, s, "tlb", "mirror")
}

func TestTLBCatchesMiswiredPresenceIndex(t *testing.T) {
	env := testEnv()
	n := env.Machine.NumCores()
	tlbs := make([]*tlb.TLB, n)
	reversed := make([]*tlb.TLB, n)
	for c := range tlbs {
		tlbs[c] = tlb.New(tlb.DefaultConfig)
	}
	for c := range reversed {
		reversed[c] = tlbs[n-1-c]
	}
	env.TLB = func(core int) *tlb.TLB { return tlbs[core] }
	// Slot c of the index is core n-1-c's TLB instead of core c's.
	env.View = comm.NewTLBView(reversed)
	tr, err := env.AS.Translate(env.AS.Alloc(4096))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.Begin(env)
	tlbs[0].Insert(tr)
	if err := s.CheckNow(); err == nil {
		t.Fatal("CheckNow accepted a presence index whose slots are not the cores' TLBs")
	}
	wantViolation(t, s, "tlb", "lacks page")
}

func TestTLBCatchesPlacementMismatch(t *testing.T) {
	s := newTestSuite()
	addr := s.env.AS.Alloc(64)
	tr, err := s.env.AS.Translate(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 2 executes on core 5, but the placement pins it to core 2.
	if err := s.OnAccess(2, 5, trace.Event{Addr: addr, Kind: trace.Load}, tr.Frame); err == nil {
		t.Fatal("OnAccess accepted a thread running on the wrong core")
	}
	wantViolation(t, s, "tlb", "placement pins it")
}

func TestTLBCatchesBadMigrationPermutation(t *testing.T) {
	s := newTestSuite()
	bad := make([]int, s.env.Machine.NumCores())
	for i := range bad {
		bad[i] = 0 // every thread on core 0
	}
	if err := s.OnMigration(0, bad); err == nil {
		t.Fatal("OnMigration accepted a non-permutation placement")
	}
	wantViolation(t, s, "tlb", "not a permutation")
}

func TestConservationCatchesCountMismatch(t *testing.T) {
	s := newTestSuite()
	// The engine claims 42 accesses; the checker observed none, and the
	// zero-valued counter banks corroborate neither story.
	res := &sim.Result{Accesses: 42}
	if err := s.Finish(res); err == nil {
		t.Fatal("Finish accepted a result with phantom accesses")
	}
	wantViolation(t, s, "conservation", "accesses")
}

func TestViolationCapKeepsRootCause(t *testing.T) {
	s := newTestSuite()
	for i := 0; i < 3*maxViolations; i++ {
		s.reportf("mesi", "violation %d", i)
	}
	if got := len(s.Violations()); got != maxViolations {
		t.Fatalf("recorded %d violations, cap is %d", got, maxViolations)
	}
	if s.Violations()[0].Msg != "violation 0" {
		t.Fatalf("first violation displaced: %v", s.Violations()[0])
	}
	if err := s.Err(); !strings.Contains(err.Error(), fmt.Sprint(3*maxViolations)) {
		t.Errorf("Err() does not report the true violation count: %v", err)
	}
}

// TestDifferentialPatterns is the headline differential test: every
// adversarial pattern, across seeds, runs the full engine with all four
// checkers armed and must come out clean.
func TestDifferentialPatterns(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range Patterns() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", p, seed), func(t *testing.T) {
				t.Parallel()
				rep, err := Differential(DiffConfig{Seed: seed, Pattern: p})
				if err != nil {
					t.Fatalf("violations: %v", rep.Violations)
				}
				if rep.Result == nil || rep.Result.Accesses == 0 {
					t.Fatal("differential run simulated no accesses")
				}
			})
		}
	}
}

// TestDifferentialMechanisms proves detection mechanisms perturb timing
// but never correctness: the checkers stay clean with SM and HM armed.
func TestDifferentialMechanisms(t *testing.T) {
	for _, mech := range []string{"SM", "HM"} {
		for _, p := range []Pattern{FalseSharing, MigrationChurn, Mixed} {
			t.Run(mech+"/"+string(p), func(t *testing.T) {
				t.Parallel()
				rep, err := Differential(DiffConfig{
					Seed: 7, Pattern: p, Mechanism: mech, STLB: mech == "HM",
				})
				if err != nil {
					t.Fatalf("violations: %v", rep.Violations)
				}
			})
		}
	}
}

// TestDifferentialTopologies covers the UMA preset and both NUMA
// extensions (the NUMA split conservation check only arms on the latter).
func TestDifferentialTopologies(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *topology.Machine
	}{
		{"harpertown", topology.Harpertown()},
		{"numa2", topology.NUMA(2)},
		{"numa4", topology.NUMA(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Differential(DiffConfig{Seed: 11, Pattern: Mixed, Machine: tc.m})
			if err != nil {
				t.Fatalf("violations: %v", rep.Violations)
			}
		})
	}
}

// TestDifferentialDeterminism: equal configs must produce bit-identical
// runs — the property the fuzz corpus and CI reproducibility rest on.
func TestDifferentialDeterminism(t *testing.T) {
	cfg := DiffConfig{Seed: 5, Pattern: MigrationChurn, Ops: 300}
	a, err := Differential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Differential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cycles != b.Result.Cycles || a.Result.Accesses != b.Result.Accesses ||
		a.Result.Counters != b.Result.Counters {
		t.Fatalf("two runs of the same config diverged: %d/%d cycles, %d/%d accesses",
			a.Result.Cycles, b.Result.Cycles, a.Result.Accesses, b.Result.Accesses)
	}
}

func TestDifferentialRejectsUnknownMechanism(t *testing.T) {
	if _, err := Differential(DiffConfig{Seed: 1, Mechanism: "bogus"}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}
