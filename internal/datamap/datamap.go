// Package datamap implements NUMA data-mapping policies: deciding which
// NUMA node each memory page should live on. It is the data-side companion
// of thread mapping — the direction the paper's future work points at
// ("Expected performance improvements in NUMA architectures are higher"),
// later developed by the same group into combined thread-and-data mapping.
//
// A policy consumes a page profile (who touches each page how often, from
// comm.PageProfile) plus the thread placement, and emits a page -> node
// assignment the simulator applies to physical frames.
package datamap

import (
	"fmt"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
)

// Policy assigns NUMA nodes to pages.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Assign returns the node for each profiled page. threadNode maps a
	// thread ID to the NUMA node of the core it is placed on.
	Assign(profile *comm.PageProfile, threadNode func(int) int, nodes int) map[vm.Page]int
}

// FirstTouch places every page on the node of the thread that touched it
// first — the default policy of Linux and most operating systems, and the
// baseline the NUMA literature compares against.
type FirstTouch struct{}

// Name implements Policy.
func (FirstTouch) Name() string { return "first-touch" }

// Assign implements Policy.
func (FirstTouch) Assign(profile *comm.PageProfile, threadNode func(int) int, nodes int) map[vm.Page]int {
	out := make(map[vm.Page]int)
	for _, page := range profile.Pages() {
		if t := profile.FirstToucher(page); t >= 0 {
			out[page] = threadNode(t)
		}
	}
	return out
}

// MostAccessed places every page on the node whose threads access it most —
// the profile-guided policy that minimizes remote accesses for stable
// access patterns.
type MostAccessed struct{}

// Name implements Policy.
func (MostAccessed) Name() string { return "most-accessed" }

// Assign implements Policy.
func (MostAccessed) Assign(profile *comm.PageProfile, threadNode func(int) int, nodes int) map[vm.Page]int {
	out := make(map[vm.Page]int)
	for _, page := range profile.Pages() {
		if n := profile.DominantNode(page, threadNode); n >= 0 {
			out[page] = n
		}
	}
	return out
}

// Interleave stripes pages round-robin across nodes — the
// bandwidth-balancing policy (numactl --interleave), which bounds worst-case
// behaviour at the price of guaranteed remote accesses.
type Interleave struct{}

// Name implements Policy.
func (Interleave) Name() string { return "interleave" }

// Assign implements Policy.
func (Interleave) Assign(profile *comm.PageProfile, threadNode func(int) int, nodes int) map[vm.Page]int {
	if nodes < 1 {
		nodes = 1
	}
	out := make(map[vm.Page]int)
	for _, page := range profile.Pages() {
		out[page] = int(uint64(page) % uint64(nodes))
	}
	return out
}

// ThreadNodeFunc builds the thread -> node function for a placement on a
// machine: the node of the core each thread is pinned to. UMA machines
// report node 0 for every thread.
func ThreadNodeFunc(machine *topology.Machine, placement []int) func(int) int {
	return func(thread int) int {
		node := machine.NUMANode(placement[thread])
		if node < 0 {
			return 0
		}
		return node
	}
}

// Assignment is a finished page -> node mapping ready for the simulator.
type Assignment struct {
	pages map[vm.Page]int
	// defaultNode receives pages that were never profiled.
	defaultNode int
}

// Build profiles -> assignment: runs the policy and wraps the result.
func Build(p Policy, profile *comm.PageProfile, machine *topology.Machine, placement []int) (*Assignment, error) {
	if profile == nil {
		return nil, fmt.Errorf("datamap: nil profile")
	}
	nodes := numNodes(machine)
	return &Assignment{pages: p.Assign(profile, ThreadNodeFunc(machine, placement), nodes)}, nil
}

func numNodes(machine *topology.Machine) int {
	max := -1
	for c := 0; c < machine.NumCores(); c++ {
		if n := machine.NUMANode(c); n > max {
			max = n
		}
	}
	if max < 0 {
		return 1
	}
	return max + 1
}

// Node returns the node assigned to a page; unprofiled pages land on the
// default node.
func (a *Assignment) Node(page vm.Page) int {
	if n, ok := a.pages[page]; ok {
		return n
	}
	return a.defaultNode
}

// RemoteFraction predicts the fraction of profiled accesses that would be
// remote under this assignment — a quick analytic quality score before any
// simulation.
func (a *Assignment) RemoteFraction(profile *comm.PageProfile, threadNode func(int) int) float64 {
	var local, remote uint64
	for _, page := range profile.Pages() {
		node := a.Node(page)
		for t, n := range profile.Counts(page) {
			if threadNode(t) == node {
				local += n
			} else {
				remote += n
			}
		}
	}
	if local+remote == 0 {
		return 0
	}
	return float64(remote) / float64(local+remote)
}
