package tlb

import (
	"encoding/binary"
	"fmt"

	"tlbmap/internal/vm"
)

// TLB state serialization for the durability layer: a recovered tenant
// must continue *byte-identically* from where the snapshot was taken, and
// future detector behaviour depends on more than the resident page set —
// victim selection reads per-entry LRU timestamps and exact slot
// positions, and the hit/miss/eviction counters feed stats. State
// therefore captures the TLB verbatim: geometry, logical clock, counters
// and every slot in flat order.
//
// Layout (little-endian):
//
//	u32 entries, u32 ways
//	u64 clock, u64 hits, u64 misses, u64 evictions
//	entries × (u8 valid, u64 page, u64 frame, u64 lru)

// AppendState appends the TLB's serialized state to buf.
func (t *TLB) AppendState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.Entries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.Ways))
	buf = binary.LittleEndian.AppendUint64(buf, t.clock)
	buf = binary.LittleEndian.AppendUint64(buf, t.hits)
	buf = binary.LittleEndian.AppendUint64(buf, t.misses)
	buf = binary.LittleEndian.AppendUint64(buf, t.evictions)
	for i := range t.flat {
		e := &t.flat[i]
		var valid byte
		if e.valid {
			valid = 1
		}
		buf = append(buf, valid)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.page))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.frame))
		buf = binary.LittleEndian.AppendUint64(buf, e.lru)
	}
	return buf
}

// DecodeState rebuilds a TLB from AppendState's encoding and returns the
// remaining bytes. The rebuilt TLB is standalone — attach it to a
// PresenceIndex afterwards and the index absorbs the restored residents
// (Attach reads the live slots). Structural violations are errors, not
// panics.
func DecodeState(data []byte) (*TLB, []byte, error) {
	const header = 4 + 4 + 8*4
	if len(data) < header {
		return nil, nil, fmt.Errorf("tlb: state decode: short header (%d bytes)", len(data))
	}
	cfg := Config{
		Entries: int(binary.LittleEndian.Uint32(data[0:4])),
		Ways:    int(binary.LittleEndian.Uint32(data[4:8])),
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("tlb: state decode: %w", err)
	}
	if cfg.Entries > 1<<20 {
		return nil, nil, fmt.Errorf("tlb: state decode: implausible geometry (%d entries)", cfg.Entries)
	}
	t := New(cfg)
	t.clock = binary.LittleEndian.Uint64(data[8:16])
	t.hits = binary.LittleEndian.Uint64(data[16:24])
	t.misses = binary.LittleEndian.Uint64(data[24:32])
	t.evictions = binary.LittleEndian.Uint64(data[32:40])
	data = data[header:]

	const slotBytes = 1 + 8*3
	if len(data) < cfg.Entries*slotBytes {
		return nil, nil, fmt.Errorf("tlb: state decode: truncated slots (%d bytes for %d entries)",
			len(data), cfg.Entries)
	}
	for i := 0; i < cfg.Entries; i++ {
		valid := data[0]
		if valid > 1 {
			return nil, nil, fmt.Errorf("tlb: state decode: bad valid byte %d in slot %d", valid, i)
		}
		e := &t.flat[i]
		e.valid = valid == 1
		e.page = vm.Page(binary.LittleEndian.Uint64(data[1:9]))
		e.frame = vm.Frame(binary.LittleEndian.Uint64(data[9:17]))
		e.lru = binary.LittleEndian.Uint64(data[17:25])
		data = data[slotBytes:]
	}
	// Rebuild the incremental occupancy counts and sanity-check the
	// invariant decode cannot express directly: one slot per page per set.
	for s := 0; s < cfg.Sets(); s++ {
		set := t.set(s)
		n := int16(0)
		for i := range set {
			if !set[i].valid {
				continue
			}
			n++
			if t.SetOf(set[i].page) != s {
				return nil, nil, fmt.Errorf("tlb: state decode: page %#x stored in set %d, maps to %d",
					uint64(set[i].page), s, t.SetOf(set[i].page))
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].valid && set[j].page == set[i].page {
					return nil, nil, fmt.Errorf("tlb: state decode: page %#x duplicated in set %d",
						uint64(set[i].page), s)
				}
			}
		}
		t.setLen[s] = n
	}
	// Rebuild the page-residency index the hot paths resolve through.
	for i := range t.flat {
		if t.flat[i].valid {
			t.indexPage(t.flat[i].page, i)
		}
	}
	return t, data, nil
}
