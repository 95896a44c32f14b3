// Package metrics defines the hardware event counters shared by the memory
// hierarchy and the simulation engine.
//
// The counter definitions mirror the events the paper measures with hardware
// performance counters on the real machine (Section VI-B): cache-line
// invalidations caused by the coherence protocol, snoop transactions
// (cache-to-cache transfers), and L2 cache misses. The simulator additionally
// tracks TLB events and cycle counts so that the overhead analysis of
// Table III can be reproduced.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Event identifies one hardware event tracked by the simulator.
type Event int

// The set of tracked hardware events.
const (
	// Invalidations counts MESI cache lines invalidated in remote caches
	// because another core wrote to a shared line.
	Invalidations Event = iota
	// SnoopTransactions counts cache-to-cache transfers: a core missed in
	// its own cache and the data was supplied by a remote cache.
	SnoopTransactions
	// L2Misses counts misses in the core's own L2 cache (requests that had
	// to be resolved by a remote cache or by main memory).
	L2Misses
	// L2Hits counts hits in the core's own L2 cache.
	L2Hits
	// L1Misses counts data L1 misses.
	L1Misses
	// L1Hits counts data L1 hits.
	L1Hits
	// TLBMisses counts TLB misses (data accesses only; the paper ignores
	// instruction fetches for mapping purposes).
	TLBMisses
	// TLBHits counts TLB hits.
	TLBHits
	// MemoryReads counts accesses that reached main memory for a read/fill.
	MemoryReads
	// MemoryWrites counts write-backs and write-throughs that reached main
	// memory.
	MemoryWrites
	// DetectionSearches counts executions of the communication-detection
	// routine (SM searches or HM scans).
	DetectionSearches
	// DetectionCycles accumulates the simulated cycles spent inside the
	// communication-detection routine. Dividing by total cycles yields the
	// "Total Overhead" column of Table III.
	DetectionCycles
	// InterChipTraffic counts coherence transactions that crossed the chip
	// boundary (Section III-A2: the mapping goal is to shift traffic from
	// inter-chip to intra-chip interconnects).
	InterChipTraffic
	// IntraChipTraffic counts coherence transactions resolved inside one
	// chip.
	IntraChipTraffic
	// LocalMemAccesses counts memory fills served by the NUMA node of the
	// requesting core (NUMA extension; zero on UMA machines).
	LocalMemAccesses
	// RemoteMemAccesses counts memory fills that crossed NUMA nodes.
	RemoteMemAccesses
	numEvents // sentinel; keep last
)

// NumEvents is the number of distinct events.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	Invalidations:     "invalidations",
	SnoopTransactions: "snoop_transactions",
	L2Misses:          "l2_misses",
	L2Hits:            "l2_hits",
	L1Misses:          "l1_misses",
	L1Hits:            "l1_hits",
	TLBMisses:         "tlb_misses",
	TLBHits:           "tlb_hits",
	MemoryReads:       "memory_reads",
	MemoryWrites:      "memory_writes",
	DetectionSearches: "detection_searches",
	DetectionCycles:   "detection_cycles",
	InterChipTraffic:  "inter_chip_traffic",
	IntraChipTraffic:  "intra_chip_traffic",
	LocalMemAccesses:  "local_mem_accesses",
	RemoteMemAccesses: "remote_mem_accesses",
}

// String returns the canonical snake_case name of the event.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Counters is a fixed-size bank of event counters. The zero value is ready
// to use.
//
// Locking contract: Counters is NOT safe for concurrent use. Each simulated
// core owns one bank, the engine serializes all accesses within a run, and
// banks are merged (Merge/Snapshot) only after the run quiesces — this is
// also the point where the conservation checker (internal/check) reads
// them, so checker reads never race with engine writes. Host-level
// parallelism (internal/runner) is across runs, never within one, so
// distinct runs never share a bank.
type Counters struct {
	counts [numEvents]uint64
}

// Add increments the counter for event e by n.
func (c *Counters) Add(e Event, n uint64) { c.counts[e] += n }

// Inc increments the counter for event e by one.
func (c *Counters) Inc(e Event) { c.counts[e]++ }

// Get returns the current value of the counter for event e.
func (c *Counters) Get(e Event) uint64 { return c.counts[e] }

// Merge adds every counter of other into c.
func (c *Counters) Merge(other *Counters) {
	for i := range c.counts {
		c.counts[i] += other.counts[i]
	}
}

// Snapshot returns a copy of the counter bank.
func (c *Counters) Snapshot() Counters { return *c }

// String renders the non-zero counters in a stable order.
func (c *Counters) String() string {
	keys := make([]string, 0, NumEvents)
	vals := make(map[string]uint64, NumEvents)
	for i := 0; i < NumEvents; i++ {
		if c.counts[i] != 0 {
			name := Event(i).String()
			keys = append(keys, name)
			vals[name] = c.counts[i]
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, vals[k])
	}
	return b.String()
}
