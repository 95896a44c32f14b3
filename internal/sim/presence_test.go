package sim

import (
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// presenceWorkload builds a small sharing-heavy team: every thread sweeps
// the same pages, so TLBs overlap and both mechanisms detect communication.
func presenceWorkload() (*vm.AddressSpace, *trace.Team) {
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

// viewProbe is a Checker that records the detector view a run was armed
// with.
type viewProbe struct{ view comm.TLBView }

func (p *viewProbe) Begin(env CheckEnv)                             { p.view = env.View }
func (p *viewProbe) OnAccess(int, int, trace.Event, vm.Frame) error { return nil }
func (p *viewProbe) OnMigration(uint64, []int) error                { return nil }
func (p *viewProbe) Finish(*Result) error                           { return nil }

// TestEngineWiresPresenceIndex proves sim.Run hands every detector but
// the null one a view over all eight cores' TLBs, and that the detectors
// find sharing through it; a null-detector run builds no index.
func TestEngineWiresPresenceIndex(t *testing.T) {
	cases := []struct {
		name string
		det  comm.Detector
		mode tlb.Management
	}{
		{"HM", comm.NewHMDetector(8, 50_000), tlb.HardwareManaged},
		{"SM", comm.NewSMDetector(8, 1), tlb.SoftwareManaged},
		{"null", nil, tlb.HardwareManaged},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			as, team := presenceWorkload()
			probe := &viewProbe{}
			cfg := Config{Machine: topology.Harpertown(), TLBMode: c.mode, Detector: c.det, Checker: probe}
			res, err := Run(cfg, as, team)
			if err != nil {
				t.Fatal(err)
			}
			if c.det == nil {
				if probe.view.Index != nil || probe.view.ThreadOf != nil {
					t.Fatal("null-detector run built a detector view")
				}
				return
			}
			if probe.view.Index == nil || probe.view.Index.Attached() != 8 {
				t.Fatal("detector run's view does not cover all eight TLBs")
			}
			if res.Matrix.Total() == 0 {
				t.Fatal("detector found no sharing through the view")
			}
		})
	}
}
