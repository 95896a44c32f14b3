package mem

// Source identifies where a memory access or cache fill was served from.
type Source uint8

// The data sources of the hierarchy, from fastest to slowest.
const (
	// SrcL1: the access hit in the core's private L1.
	SrcL1 Source = iota
	// SrcL2: the access hit in the core's L2 domain.
	SrcL2
	// SrcCache: the line was supplied by a remote L2 over the snooping
	// interconnect (a cache-to-cache transfer).
	SrcCache
	// SrcMemory: the line was filled from main memory.
	SrcMemory
)

func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcCache:
		return "remote-cache"
	case SrcMemory:
		return "memory"
	default:
		return "source(?)"
	}
}

// Observer receives fine-grained memory-hierarchy events: every completed
// access and every coherence transition the System performs. It exists for
// the runtime invariant checkers of internal/check; the hooks fire
// synchronously on the simulated access path, so implementations must not
// block and must not call back into the System's mutating methods.
//
// When no observer is armed (the default) the System performs a single nil
// check per potential event, keeping the disabled cost near zero.
type Observer interface {
	// OnRead fires after a load completes. src tells where the data was
	// served from; supplier is the supplying L2 domain when src is
	// SrcCache, and -1 otherwise.
	OnRead(core int, l Line, src Source, supplier int)
	// OnWrite fires after a store completes. src tells where the line was
	// obtained on a write miss (SrcCache or SrcMemory); write hits report
	// SrcL2 (the write-back L2 owns the data). supplier is as in OnRead.
	OnWrite(core int, l Line, src Source, supplier int)
	// OnL1Install fires when a line is installed in a core's private L1
	// (always in Shared state: L1s are write-through).
	OnL1Install(core int, l Line)
	// OnL1Drop fires when an L1 copy is discarded — coherence
	// invalidation, inclusion enforcement, or silent replacement.
	OnL1Drop(core int, l Line)
	// OnL2Install fires when a line is installed in a domain's L2 after a
	// miss. src is SrcCache (with the supplying domain) or SrcMemory.
	OnL2Install(domain int, l Line, st MESIState, src Source, supplier int)
	// OnL2State fires on every state transition of a resident L2 line:
	// upgrades (S/E -> M), snoop downgrades (M/E -> S) and invalidations
	// (-> Invalid).
	OnL2State(domain int, l Line, old, new MESIState)
	// OnL2Evict fires when installing a line displaces another; a
	// Modified victim implies a write-back (also reported via
	// OnWriteBack).
	OnL2Evict(domain int, l Line, st MESIState)
	// OnWriteBack fires when a Modified line's data reaches main memory:
	// a snoop downgrade by a read miss, or a dirty eviction.
	OnWriteBack(domain int, l Line)
}

// SetObserver arms (or, with nil, disarms) the hierarchy observer. The
// simulation engine calls this once before a run when invariant checking is
// enabled.
func (s *System) SetObserver(o Observer) { s.obs = o }
