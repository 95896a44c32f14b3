package comm_test

import (
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/metrics"
	"tlbmap/internal/sim"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// sharingWorkload builds a small sharing-heavy team: every thread sweeps
// the same pages, so TLBs overlap and both mechanisms detect
// communication.
func sharingWorkload() (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	arr := trace.NewF64(as, 1<<13) // 16 pages, shared by all threads
	team := trace.SPMD(8, func(th *trace.Thread) {
		for it := 0; it < 6; it++ {
			for i := 0; i < 256; i++ {
				arr.Add(th, (th.ID()*64+i*13)%arr.Len(), 1)
				th.Compute(2)
			}
			th.Barrier()
		}
	}, 0)
	return as, team
}

// envTLBs is a sim.Checker that only keeps the run's CheckEnv, so a
// reference detector can read the TLBs themselves.
type envTLBs struct{ env sim.CheckEnv }

func (c *envTLBs) Begin(env sim.CheckEnv)                         { c.env = env }
func (c *envTLBs) OnAccess(int, int, trace.Event, vm.Frame) error { return nil }
func (c *envTLBs) OnMigration(uint64, []int) error                { return nil }
func (c *envTLBs) Finish(*sim.Result) error                       { return nil }

// byThread returns the TLB of the core each thread currently runs on.
func (c *envTLBs) byThread() []*tlb.TLB {
	out := make([]*tlb.TLB, len(c.env.Placement))
	for th, core := range c.env.Placement {
		out[th] = c.env.TLBs[core]
	}
	return out
}

// rotate moves every thread to the next core on each migration poll.
func rotate(_ uint64, placement []int) []int {
	for i := range placement {
		placement[i] = (placement[i] + 1) % len(placement)
	}
	return placement
}

type searcher interface {
	comm.Detector
	Searches() uint64
}

// TestEngineIndexedRunMatchesProbeRun is the engine-level differential: a
// run with SMDetector or HMDetector, which see the TLBs only through the
// engine's presence-index view, must produce the same matrix, search
// count, detection charges and cycle count as the same run with the
// reference detector, which runs the literal Figure 1 routines (remote
// probes, pairwise set scans) over the TLBs themselves. The migrating
// variant rotates every thread to another core periodically, so the view's
// slot -> thread table is rewritten mid-run.
func TestEngineIndexedRunMatchesProbeRun(t *testing.T) {
	cases := []struct {
		name string
		mode tlb.Management
		det  func() searcher
		ref  func(tlbs func() []*tlb.TLB) searcher
	}{
		{"SM", tlb.SoftwareManaged,
			func() searcher { return comm.NewSMDetector(8, 1) },
			func(tlbs func() []*tlb.TLB) searcher { return comm.NewReferenceSM(8, 1, tlbs) }},
		{"HM", tlb.HardwareManaged,
			func() searcher { return comm.NewHMDetector(8, 50_000) },
			func(tlbs func() []*tlb.TLB) searcher { return comm.NewReferenceHM(8, 50_000, tlbs) }},
	}
	run := func(t *testing.T, det comm.Detector, mode tlb.Management, migrate bool, env *envTLBs) *sim.Result {
		t.Helper()
		as, team := sharingWorkload()
		cfg := sim.Config{Machine: topology.Harpertown(), TLBMode: mode, Detector: det, Checker: env}
		if migrate {
			cfg.Migrator, cfg.MigrationInterval = rotate, 150_000
		}
		res, err := sim.Run(cfg, as, team)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, migrate := range []bool{false, true} {
				name := "static"
				if migrate {
					name = "migrating"
				}
				t.Run(name, func(t *testing.T) {
					det := c.det()
					resD := run(t, det, c.mode, migrate, &envTLBs{})
					env := &envTLBs{}
					ref := c.ref(env.byThread)
					resR := run(t, ref, c.mode, migrate, env)

					if det.Searches() == 0 {
						t.Fatal("run performed no searches; workload too small")
					}
					if migrate && resD.Migrations == 0 {
						t.Fatal("migrating run moved no thread")
					}
					if det.Searches() != ref.Searches() {
						t.Fatalf("search counts diverge: %d, reference %d", det.Searches(), ref.Searches())
					}
					if d, r := resD.Counters.Get(metrics.DetectionCycles), resR.Counters.Get(metrics.DetectionCycles); d != r {
						t.Fatalf("detection charges diverge: %d, reference %d", d, r)
					}
					if resD.Cycles != resR.Cycles {
						t.Fatalf("run lengths diverge: %d cycles, reference %d", resD.Cycles, resR.Cycles)
					}
					if !det.Matrix().Equal(ref.Matrix()) {
						t.Fatalf("matrices diverge:\n%s\nreference:\n%s", det.Matrix(), ref.Matrix())
					}
				})
			}
		})
	}
}
