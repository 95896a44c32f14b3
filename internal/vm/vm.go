// Package vm implements the virtual-memory substrate of the simulator: a
// shared address space with 4 KiB pages, a two-level page table, and a
// physical frame allocator.
//
// The TLB-based detection mechanism (Section IV of the paper) operates on
// page-table entries: two cores "communicate" when the same virtual page is
// resident in both of their TLBs. The address space here plays the role the
// OS page table plays on real hardware: it is the backing store TLBs fill
// from, and a page walk through it is what a hardware-managed TLB performs
// on a miss.
package vm

import (
	"errors"
	"fmt"
)

// PageShift is log2 of the page size. 4 KiB pages, as on the SPARC and x86
// systems the paper targets.
const PageShift = 12

// PageSize is the size of one virtual memory page in bytes.
const PageSize = 1 << PageShift

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// Addr is a virtual address in the simulated address space.
type Addr uint64

// Page returns the virtual page number containing the address.
func (a Addr) Page() Page { return Page(a >> PageShift) }

// Offset returns the byte offset of the address within its page.
func (a Addr) Offset() uint64 { return uint64(a) & PageMask }

// Page is a virtual page number.
type Page uint64

// Frame is a physical frame number.
type Frame uint64

// Translation is one page-table entry as delivered to a TLB.
type Translation struct {
	Page  Page
	Frame Frame
}

// ErrUnmapped is returned when a translation is requested for an address
// that was never allocated.
var ErrUnmapped = errors.New("vm: address not mapped")

// pteTableBits is the number of VPN bits indexing the second page-table
// level; the remaining high bits index the directory. This mirrors a
// classic two-level 32-bit-style table and lets us charge a realistic
// two-access walk cost on hardware-managed TLB misses.
const pteTableBits = 10

// AddressSpace is the single shared address space of the simulated parallel
// application (the paper targets shared-memory programs: all threads share
// one page table). It allocates regions and resolves translations.
//
// AddressSpace is not safe for concurrent use; the simulation engine
// serializes all accesses.
type AddressSpace struct {
	directory map[uint64]map[uint64]Frame // dirIndex -> tableIndex -> frame
	nextFrame Frame
	nextAddr  Addr // bump allocator for Alloc; page-aligned
	pages     uint64
}

// NewAddressSpace returns an empty address space. The first allocation
// starts at a non-zero base so that address 0 stays invalid.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		directory: make(map[uint64]map[uint64]Frame),
		nextAddr:  Addr(PageSize), // skip the zero page
	}
}

// Alloc reserves size bytes of fresh virtual memory, maps every page in the
// region eagerly, and returns the base address. Regions are page-aligned
// and contiguous. A zero or negative size returns the current break with no
// allocation.
func (as *AddressSpace) Alloc(size int64) Addr {
	base := as.nextAddr
	if size <= 0 {
		return base
	}
	pages := (uint64(size) + PageSize - 1) / PageSize
	for i := uint64(0); i < pages; i++ {
		as.mapPage(Page(uint64(base)>>PageShift + i))
	}
	as.nextAddr = base + Addr(pages*PageSize)
	return base
}

// AllocPageAligned reserves size bytes starting on a fresh page and then
// skips to the next page boundary, guaranteeing that no two regions share a
// page. This is how thread-private data is laid out so that private arrays
// never produce page-level false communication.
func (as *AddressSpace) AllocPageAligned(size int64) Addr {
	// The bump allocator is already page-aligned after every Alloc.
	return as.Alloc(((size + PageSize - 1) / PageSize) * PageSize)
}

func (as *AddressSpace) mapPage(p Page) {
	di := uint64(p) >> pteTableBits
	ti := uint64(p) & (1<<pteTableBits - 1)
	tbl, ok := as.directory[di]
	if !ok {
		tbl = make(map[uint64]Frame)
		as.directory[di] = tbl
	}
	if _, ok := tbl[ti]; !ok {
		tbl[ti] = as.nextFrame
		as.nextFrame++
		as.pages++
	}
}

// Translate performs a page walk for the page containing addr and returns
// its translation (two memory references on real hardware; latency is
// charged by the caller).
func (as *AddressSpace) Translate(addr Addr) (Translation, error) {
	p := addr.Page()
	di := uint64(p) >> pteTableBits
	ti := uint64(p) & (1<<pteTableBits - 1)
	tbl, ok := as.directory[di]
	if !ok {
		return Translation{}, fmt.Errorf("%w: %#x", ErrUnmapped, uint64(addr))
	}
	f, ok := tbl[ti]
	if !ok {
		return Translation{}, fmt.Errorf("%w: %#x", ErrUnmapped, uint64(addr))
	}
	return Translation{Page: p, Frame: f}, nil
}

// Lookup resolves a page's frame, or reports that the page is unmapped —
// the inspection path of the TLB-consistency checker.
func (as *AddressSpace) Lookup(p Page) (Frame, bool) {
	tbl, ok := as.directory[uint64(p)>>pteTableBits]
	if !ok {
		return 0, false
	}
	f, ok := tbl[uint64(p)&(1<<pteTableBits-1)]
	return f, ok
}

// MappedPages returns the number of distinct pages mapped so far.
func (as *AddressSpace) MappedPages() uint64 { return as.pages }

// WalkCost is the simulated cycle cost of one two-level page walk performed
// by a hardware-managed TLB (two dependent memory references that typically
// hit in the cache hierarchy).
const WalkCost = 30

// TrapCost is the simulated cycle cost of the trap + OS refill path of a
// software-managed TLB miss (context save, handler dispatch, PTE load,
// return). This is the baseline cost of SM misses even with detection
// disabled.
const TrapCost = 80
