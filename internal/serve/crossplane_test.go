package serve

import (
	"context"
	"errors"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/npb"
	"tlbmap/internal/sim"
	"tlbmap/internal/splash"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// accessLog is a sim.Checker that records every data access as the
// (thread, page) event mapperd ingests, in the engine's commit order.
type accessLog struct{ events []Event }

func (l *accessLog) Begin(sim.CheckEnv) {}
func (l *accessLog) OnAccess(thread, _ int, ev trace.Event, _ vm.Frame) error {
	l.events = append(l.events, Event{Thread: int32(thread), Page: ev.Addr.Page()})
	return nil
}
func (l *accessLog) OnMigration(uint64, []int) error { return nil }
func (l *accessLog) Finish(*sim.Result) error        { return nil }

// requireSamePlanes runs a kernel on the engine under SM with every miss
// searched (software-managed TLBs, Harpertown, identity placement), feeds
// the run's access stream to an in-process mapperd tenant in batches of
// 512, and requires the tenant's matrix to equal the engine's: both
// planes run the same TLB geometry and the same search (comm.SMSearch),
// so they must detect the same communication.
func requireSamePlanes(t *testing.T, build func(as *vm.AddressSpace) []trace.Program) {
	as := vm.NewAddressSpace()
	programs := build(as)
	n := len(programs)
	log := &accessLog{}
	res, err := sim.Run(sim.Config{
		Machine:  topology.Harpertown(),
		TLBMode:  tlb.SoftwareManaged,
		Detector: comm.NewSMDetector(n, 1),
		Checker:  log,
	}, as, trace.NewTeam(programs, 0))
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	if err := srv.CreateTenant("app", n); err != nil {
		t.Fatal(err)
	}
	for events := log.events; len(events) > 0; {
		batch := events[:min(512, len(events))]
		err := srv.Ingest("app", batch)
		if errors.Is(err, ErrOverloaded) {
			continue // refused whole: send it again
		}
		if err != nil {
			t.Fatal(err)
		}
		events = events[len(batch):]
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Applied != uint64(len(log.events)) {
		t.Fatalf("tenant applied %d of %d events", snap.Applied, len(log.events))
	}
	if res.Matrix.Total() == 0 {
		t.Fatal("engine detected no communication; the comparison is vacuous")
	}
	if !snap.Matrix.Equal(res.Matrix) {
		t.Fatalf("mapperd and engine matrices differ:\nmapperd:\n%s\nengine:\n%s", snap.Matrix, res.Matrix)
	}
}

// TestCrossPlaneDifferential proves mapperd serves the engine's SM
// detector: every NPB and SPLASH kernel at class S, and the NPB kernels at
// the evaluation's class W outside -short.
func TestCrossPlaneDifferential(t *testing.T) {
	for _, b := range npb.All() {
		b := b
		t.Run("S/"+b.Name, func(t *testing.T) {
			requireSamePlanes(t, func(as *vm.AddressSpace) []trace.Program {
				return b.Build(as, npb.Params{Class: npb.ClassS})
			})
		})
	}
	for _, b := range splash.All() {
		b := b
		t.Run("S/"+b.Name, func(t *testing.T) {
			requireSamePlanes(t, func(as *vm.AddressSpace) []trace.Program {
				return b.Build(as, splash.Params{Class: splash.ClassS})
			})
		})
	}
	if testing.Short() {
		return
	}
	for _, b := range npb.All() {
		b := b
		t.Run("W/"+b.Name, func(t *testing.T) {
			requireSamePlanes(t, func(as *vm.AddressSpace) []trace.Program {
				return b.Build(as, npb.Params{Class: npb.ClassW})
			})
		})
	}
}
