package datamap

import (
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
)

// buildProfile: page 1 touched mostly by thread 0 (first toucher thread 1),
// page 2 exclusively by thread 5, page 3 shared evenly.
func buildProfile() *comm.PageProfile {
	p := comm.NewPageProfile(8)
	p.Record(1, 1) // first toucher of page 1 is thread 1
	for i := 0; i < 10; i++ {
		p.Record(0, 1)
	}
	for i := 0; i < 5; i++ {
		p.Record(5, 2)
	}
	p.Record(0, 3)
	p.Record(7, 3)
	return p
}

func identity8() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }

func TestThreadNodeFunc(t *testing.T) {
	m := topology.NUMA(2) // cores 0-3 node 0, cores 4-7 node 1
	tn := ThreadNodeFunc(m, identity8())
	if tn(0) != 0 || tn(3) != 0 || tn(4) != 1 || tn(7) != 1 {
		t.Error("thread->node mapping wrong")
	}
	// A reversed placement flips the nodes.
	tnRev := ThreadNodeFunc(m, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if tnRev(0) != 1 || tnRev(7) != 0 {
		t.Error("placement not honoured")
	}
	// UMA machines collapse to node 0.
	tnUMA := ThreadNodeFunc(topology.Harpertown(), identity8())
	for th := 0; th < 8; th++ {
		if tnUMA(th) != 0 {
			t.Fatal("UMA thread node != 0")
		}
	}
}

func TestFirstTouchPolicy(t *testing.T) {
	m := topology.NUMA(2)
	a, err := Build(FirstTouch{}, buildProfile(), m, identity8())
	if err != nil {
		t.Fatal(err)
	}
	// Page 1 first touched by thread 1 (node 0); page 2 by thread 5
	// (node 1).
	if a.Node(1) != 0 {
		t.Errorf("page 1 -> node %d, want 0", a.Node(1))
	}
	if a.Node(2) != 1 {
		t.Errorf("page 2 -> node %d, want 1", a.Node(2))
	}
	if len(a.pages) != 3 {
		t.Errorf("%d pages assigned, want 3", len(a.pages))
	}
	// Unprofiled pages land on the default node.
	if a.Node(999) != 0 {
		t.Error("default node")
	}
}

func TestMostAccessedPolicy(t *testing.T) {
	m := topology.NUMA(2)
	a, err := Build(MostAccessed{}, buildProfile(), m, identity8())
	if err != nil {
		t.Fatal(err)
	}
	// Page 1: thread 0 dominates (node 0) despite thread 1 touching first.
	if a.Node(1) != 0 {
		t.Errorf("page 1 -> node %d, want 0", a.Node(1))
	}
	// Page 2: thread 5 (node 1).
	if a.Node(2) != 1 {
		t.Errorf("page 2 -> node %d, want 1", a.Node(2))
	}
}

func TestMostAccessedFollowsPlacement(t *testing.T) {
	// With the reversed placement, thread 0 sits on node 1, so page 1
	// must move with it.
	m := topology.NUMA(2)
	a, err := Build(MostAccessed{}, buildProfile(), m, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Node(1) != 1 {
		t.Errorf("page 1 -> node %d, want 1 under reversed placement", a.Node(1))
	}
}

func TestInterleavePolicy(t *testing.T) {
	m := topology.NUMA(2)
	a, err := Build(Interleave{}, buildProfile(), m, identity8())
	if err != nil {
		t.Fatal(err)
	}
	if a.Node(1) != 1 || a.Node(2) != 0 || a.Node(3) != 1 {
		t.Errorf("interleave nodes: %d %d %d", a.Node(1), a.Node(2), a.Node(3))
	}
}

func TestBuildNilProfile(t *testing.T) {
	if _, err := Build(FirstTouch{}, nil, topology.NUMA(2), identity8()); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRemoteFraction(t *testing.T) {
	m := topology.NUMA(2)
	profile := comm.NewPageProfile(8)
	for i := 0; i < 10; i++ {
		profile.Record(0, 1) // node 0
	}
	for i := 0; i < 10; i++ {
		profile.Record(4, 2) // node 1
	}
	tn := ThreadNodeFunc(m, identity8())

	ma, _ := Build(MostAccessed{}, profile, m, identity8())
	if f := ma.RemoteFraction(profile, tn); f != 0 {
		t.Errorf("most-accessed remote fraction = %v, want 0", f)
	}
	// Force everything onto node 0: half the accesses become remote.
	everything := &Assignment{pages: map[vm.Page]int{1: 0, 2: 0}}
	if f := everything.RemoteFraction(profile, tn); f != 0.5 {
		t.Errorf("remote fraction = %v, want 0.5", f)
	}
	empty := &Assignment{pages: map[vm.Page]int{}}
	if f := empty.RemoteFraction(comm.NewPageProfile(8), tn); f != 0 {
		t.Error("empty profile fraction")
	}
}

func TestPolicyNames(t *testing.T) {
	if (FirstTouch{}).Name() != "first-touch" ||
		(MostAccessed{}).Name() != "most-accessed" ||
		(Interleave{}).Name() != "interleave" {
		t.Error("policy names")
	}
}
