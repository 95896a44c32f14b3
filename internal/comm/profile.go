package comm

import (
	"sort"

	"tlbmap/internal/vm"
)

// PageProfile records, for every virtual page, how often each thread
// touched it and which thread touched it first. It is the input of the
// NUMA data-mapping policies (the thread-and-data-mapping direction the
// paper's future work points at): where a communication matrix answers
// "which *threads* belong together", a page profile answers "which *node*
// each page belongs on".
type PageProfile struct {
	threads int
	counts  map[vm.Page][]uint64
	first   map[vm.Page]int
}

// NewPageProfile returns an empty profile for n threads.
func NewPageProfile(n int) *PageProfile {
	return &PageProfile{
		threads: n,
		counts:  make(map[vm.Page][]uint64),
		first:   make(map[vm.Page]int),
	}
}

// Threads returns the number of threads profiled.
func (p *PageProfile) Threads() int { return p.threads }

// Record counts one access to page by thread.
func (p *PageProfile) Record(thread int, page vm.Page) {
	c, ok := p.counts[page]
	if !ok {
		c = make([]uint64, p.threads)
		p.counts[page] = c
		p.first[page] = thread
	}
	c[thread]++
}

// Pages returns every profiled page in ascending order.
func (p *PageProfile) Pages() []vm.Page {
	out := make([]vm.Page, 0, len(p.counts))
	for pg := range p.counts {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Counts returns the per-thread access counts of a page (nil if the page
// was never touched). The returned slice is live; callers must not modify
// it.
func (p *PageProfile) Counts(page vm.Page) []uint64 { return p.counts[page] }

// FirstToucher returns the thread that touched a page first, or -1 for an
// untouched page.
func (p *PageProfile) FirstToucher(page vm.Page) int {
	if t, ok := p.first[page]; ok {
		return t
	}
	return -1
}

// DominantThread returns the thread with the most accesses to a page, or
// -1 for an untouched page. Ties break toward the lower thread ID.
func (p *PageProfile) DominantThread(page vm.Page) int {
	c, ok := p.counts[page]
	if !ok {
		return -1
	}
	best := 0
	for t := 1; t < len(c); t++ {
		if c[t] > c[best] {
			best = t
		}
	}
	return best
}

// DominantNode aggregates a page's accesses per NUMA node (via threadNode,
// which maps a thread to the node its core belongs to) and returns the node
// with the most accesses, or -1 for an untouched page.
func (p *PageProfile) DominantNode(page vm.Page, threadNode func(int) int) int {
	c, ok := p.counts[page]
	if !ok {
		return -1
	}
	perNode := map[int]uint64{}
	for t, n := range c {
		perNode[threadNode(t)] += n
	}
	best, bestCount := -1, uint64(0)
	// Deterministic order: iterate nodes ascending.
	nodes := make([]int, 0, len(perNode))
	for node := range perNode {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		if perNode[node] > bestCount {
			best, bestCount = node, perNode[node]
		}
	}
	return best
}

// SharedPages returns the pages touched by more than one thread — the
// pages that actually constitute communication.
func (p *PageProfile) SharedPages() []vm.Page {
	var out []vm.Page
	for pg, c := range p.counts {
		touched := 0
		for _, n := range c {
			if n > 0 {
				touched++
			}
		}
		if touched > 1 {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Matrix derives a communication matrix from the profile: for every page,
// each pair of threads that both touched it communicates in proportion to
// the smaller of their access counts. It is a coarser signal than the
// oracle's temporal analysis but needs no per-access history.
func (p *PageProfile) Matrix() *Matrix {
	m := NewMatrix(p.threads)
	for _, c := range p.counts {
		for i := 0; i < p.threads; i++ {
			if c[i] == 0 {
				continue
			}
			for j := i + 1; j < p.threads; j++ {
				if c[j] == 0 {
					continue
				}
				w := c[i]
				if c[j] < w {
					w = c[j]
				}
				m.Add(i, j, w)
			}
		}
	}
	return m
}

// ProfileDetector is a Detector that builds a PageProfile from the access
// stream (and nothing else: it never charges cycles).
type ProfileDetector struct {
	profile *PageProfile
}

// NewProfileDetector returns a profiling detector for n threads.
func NewProfileDetector(n int) *ProfileDetector {
	return &ProfileDetector{profile: NewPageProfile(n)}
}

// Name implements Detector.
func (d *ProfileDetector) Name() string { return "page-profile" }

// OnAccess implements Detector.
func (d *ProfileDetector) OnAccess(thread int, addr vm.Addr) {
	d.profile.Record(thread, addr.Page())
}

// OnTLBMiss implements Detector.
func (d *ProfileDetector) OnTLBMiss(int, vm.Page, TLBView) uint64 { return 0 }

// MaybeScan implements Detector.
func (d *ProfileDetector) MaybeScan(uint64, TLBView) uint64 { return 0 }

// Matrix implements Detector (derived from the profile).
func (d *ProfileDetector) Matrix() *Matrix { return d.profile.Matrix() }

// Profile returns the accumulated page profile.
func (d *ProfileDetector) Profile() *PageProfile { return d.profile }
