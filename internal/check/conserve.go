package check

import (
	"tlbmap/internal/metrics"
	"tlbmap/internal/sim"
)

// conserveChecker proves the counter arithmetic of a finished run. It
// counts accesses per core independently of the engine's bookkeeping and
// then checks, at Finish:
//
//   - total and per-core access counts match the engine's;
//   - every access performed exactly one TLB lookup and one L1 lookup
//     (hits + misses == accesses, globally and per core);
//   - L2 lookups never exceed accesses (write hits in M/E/S skip the
//     counter, so equality is not required);
//   - every snoop transaction was classified as intra- or inter-chip
//     traffic (upgrades add traffic without a transfer, so traffic may
//     exceed snoops but never the reverse);
//   - on NUMA machines every memory read is classified local or remote;
//     on UMA machines both counters stay zero;
//   - the machine-wide bank equals the sum of the per-core banks, and
//     Cycles is the maximum core clock.
type conserveChecker struct {
	s *Suite

	perCore []uint64
	total   uint64
}

func (c *conserveChecker) init(cores int) {
	c.perCore = make([]uint64, cores)
	c.total = 0
}

func (c *conserveChecker) onAccess(core int) {
	c.perCore[core]++
	c.total++
}

func (c *conserveChecker) finish(res *sim.Result) {
	if res.Accesses != c.total {
		c.s.reportf("conservation", "engine reports %d accesses, checker observed %d", res.Accesses, c.total)
	}

	var sum metrics.Counters
	var maxClock uint64
	for core := range res.PerCore {
		bank := &res.PerCore[core]
		sum.Merge(bank)
		if res.CoreCycles[core] > maxClock {
			maxClock = res.CoreCycles[core]
		}
		tlbL := bank.Get(metrics.TLBHits) + bank.Get(metrics.TLBMisses)
		if tlbL != c.perCore[core] {
			c.s.reportf("conservation", "core %d: %d TLB lookups for %d accesses", core, tlbL, c.perCore[core])
		}
		l1L := bank.Get(metrics.L1Hits) + bank.Get(metrics.L1Misses)
		if l1L != c.perCore[core] {
			c.s.reportf("conservation", "core %d: %d L1 lookups for %d accesses", core, l1L, c.perCore[core])
		}
	}
	if sum != res.Counters {
		c.s.reportf("conservation", "per-core banks sum to {%s}, machine-wide bank is {%s}",
			sum.String(), res.Counters.String())
	}
	if maxClock != res.Cycles {
		c.s.reportf("conservation", "Cycles %d is not the maximum core clock %d", res.Cycles, maxClock)
	}

	ctr := &res.Counters
	if got := ctr.Get(metrics.TLBHits) + ctr.Get(metrics.TLBMisses); got != res.Accesses {
		c.s.reportf("conservation", "%d TLB lookups for %d accesses", got, res.Accesses)
	}
	if got := ctr.Get(metrics.L1Hits) + ctr.Get(metrics.L1Misses); got != res.Accesses {
		c.s.reportf("conservation", "%d L1 lookups for %d accesses", got, res.Accesses)
	}
	if got := ctr.Get(metrics.L2Hits) + ctr.Get(metrics.L2Misses); got > res.Accesses {
		c.s.reportf("conservation", "%d L2 lookups exceed %d accesses", got, res.Accesses)
	}
	snoops := ctr.Get(metrics.SnoopTransactions)
	traffic := ctr.Get(metrics.IntraChipTraffic) + ctr.Get(metrics.InterChipTraffic)
	if snoops > traffic {
		c.s.reportf("conservation", "%d snoop transactions but only %d classified traffic events", snoops, traffic)
	}
	local, remote := ctr.Get(metrics.LocalMemAccesses), ctr.Get(metrics.RemoteMemAccesses)
	if c.s.env.System.NUMA() {
		if reads := ctr.Get(metrics.MemoryReads); local+remote != reads {
			c.s.reportf("conservation", "NUMA split %d local + %d remote != %d memory reads", local, remote, reads)
		}
	} else if local != 0 || remote != 0 {
		c.s.reportf("conservation", "UMA machine counted NUMA traffic (%d local, %d remote)", local, remote)
	}

	// Structural cross-check: the TLB hardware's own statistics must agree
	// with the access count (each access looks its core's TLB up once).
	var tlbL uint64
	for _, t := range c.s.env.TLBs {
		tlbL += t.Hits() + t.Misses()
	}
	if tlbL != res.Accesses {
		c.s.reportf("conservation", "TLB hardware performed %d lookups for %d accesses", tlbL, res.Accesses)
	}
}
