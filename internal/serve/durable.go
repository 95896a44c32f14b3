// Durable tenants: every accepted batch is written to a per-tenant
// write-ahead log before it is acknowledged, and the full detector state
// — matrix, TLBs with their LRU clocks, online-mapper confidence, fault
// PRNG states, dedup map — is periodically serialized into a checksummed
// snapshot blob that lets the log be compacted. Recovery is snapshot +
// WAL tail replay, and because every piece of state that influences
// future behaviour is captured, a recovered tenant is byte-identical to
// one that applied the same prefix without crashing (the chaos battery
// asserts exactly this).
//
// On-disk layout under Config.Dir:
//
//	tenants/<hex(id)>/meta       blob: thread count + tenant id
//	tenants/<hex(id)>/snapshot   blob: serialized tenant state
//	tenants/<hex(id)>/wal/       segmented write-ahead log
package serve

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"tlbmap/internal/comm"
	"tlbmap/internal/mapping"
	"tlbmap/internal/runner"
	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// tenantDir maps a tenant id to its directory: hex keeps arbitrary ids
// filesystem-safe and reversible (Open decodes the name to re-create the
// tenant without trusting anything but the directory listing).
func tenantDir(root, id string) string {
	return filepath.Join(root, "tenants", hex.EncodeToString([]byte(id)))
}

// --- meta blob ---

func encodeMeta(id string, threads int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(threads))
	return append(buf, id...)
}

func decodeMeta(data []byte) (id string, threads int, err error) {
	if len(data) < 4 {
		return "", 0, fmt.Errorf("serve: meta blob too short (%d bytes)", len(data))
	}
	return string(data[4:]), int(binary.LittleEndian.Uint32(data[0:4])), nil
}

// --- WAL record codec ---

// appendWALRecord frames one accepted batch: the client idempotence key
// (source + client seq) plus the events. Recovery replays the events and
// rebuilds the dedup map from the key.
func appendWALRecord(buf []byte, source string, srcSeq uint64, events []Event) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(source)))
	buf = append(buf, source...)
	buf = binary.LittleEndian.AppendUint64(buf, srcSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for _, e := range events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Thread))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Page))
	}
	return buf
}

func decodeWALRecord(data []byte, threads int) (source string, srcSeq uint64, events []Event, err error) {
	if len(data) < 2 {
		return "", 0, nil, fmt.Errorf("serve: wal record too short")
	}
	slen := int(binary.LittleEndian.Uint16(data[0:2]))
	data = data[2:]
	if len(data) < slen+8+4 {
		return "", 0, nil, fmt.Errorf("serve: wal record truncated")
	}
	source = string(data[:slen])
	data = data[slen:]
	srcSeq = binary.LittleEndian.Uint64(data[0:8])
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	data = data[12:]
	if n < 0 || len(data) != n*12 {
		return "", 0, nil, fmt.Errorf("serve: wal record: %d bytes for %d events", len(data), n)
	}
	events = make([]Event, n)
	for i := range events {
		th := int32(binary.LittleEndian.Uint32(data[0:4]))
		if th < 0 || int(th) >= threads {
			return "", 0, nil, fmt.Errorf("serve: wal record: thread %d out of range [0, %d)", th, threads)
		}
		events[i] = Event{Thread: th, Page: vm.Page(binary.LittleEndian.Uint64(data[4:12]))}
		data = data[12:]
	}
	return source, srcSeq, events, nil
}

// --- tenant state snapshot codec ---

// encodeStateLocked serializes the full detector state, appending to buf
// (callers on the checkpoint cadence pass a reused scratch buffer). Caller
// holds t.mu, so the encoding is a consistent cut: appliedSeq names the
// last batch whose effects are included, and everything that shapes future
// behaviour (matrix cells, TLB slots with their LRU timestamps and
// clocks, online-mapper confidence, PRNG states, the applied-side dedup
// map) is in the payload.
func (t *tenant) encodeStateLocked(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, t.appliedSeq)
	buf = binary.LittleEndian.AppendUint64(buf, t.applied.Load())
	buf = binary.LittleEndian.AppendUint64(buf, t.lost.Load())
	buf = binary.LittleEndian.AppendUint64(buf, t.storms.Load())
	var lossState, stormState uint64
	if t.lossRng != nil {
		lossState = t.lossRng.state
	}
	if t.stormRng != nil {
		stormState = t.stormRng.state
	}
	buf = binary.LittleEndian.AppendUint64(buf, lossState)
	buf = binary.LittleEndian.AppendUint64(buf, stormState)
	buf = t.matrix.AppendBinary(buf)
	buf = comm.AppendOptionalMatrix(buf, t.lastSnap)
	buf = t.online.State().AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.tlbs)))
	for _, tl := range t.tlbs {
		buf = tl.AppendState(buf)
	}
	srcs := make([]string, 0, len(t.appliedSources))
	for s := range t.appliedSources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, s := range srcs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
		buf = binary.LittleEndian.AppendUint64(buf, t.appliedSources[s])
	}
	return buf
}

// restoreState is encodeStateLocked's inverse: it overwrites the fresh
// tenant's state with the snapshot. Only called during newTenant, before
// the applier starts, so no locking is needed.
func (t *tenant) restoreState(data []byte) error {
	if len(data) < 8*6 {
		return fmt.Errorf("snapshot too short (%d bytes)", len(data))
	}
	t.appliedSeq = binary.LittleEndian.Uint64(data[0:8])
	t.applied.Store(binary.LittleEndian.Uint64(data[8:16]))
	t.lost.Store(binary.LittleEndian.Uint64(data[16:24]))
	t.storms.Store(binary.LittleEndian.Uint64(data[24:32]))
	if t.lossRng != nil {
		t.lossRng.state = binary.LittleEndian.Uint64(data[32:40])
	}
	if t.stormRng != nil {
		t.stormRng.state = binary.LittleEndian.Uint64(data[40:48])
	}
	data = data[48:]
	var err error
	if t.matrix, data, err = comm.DecodeMatrix(data, t.threads); err != nil {
		return fmt.Errorf("snapshot matrix: %w", err)
	}
	if t.lastSnap, data, err = comm.DecodeOptionalMatrix(data, t.threads); err != nil {
		return fmt.Errorf("snapshot epoch matrix: %w", err)
	}
	var ost mapping.OnlineState
	if ost, data, err = mapping.DecodeOnlineState(data, t.threads); err != nil {
		return fmt.Errorf("snapshot mapper state: %w", err)
	}
	if err := t.online.Restore(ost); err != nil {
		return fmt.Errorf("snapshot mapper state: %w", err)
	}
	t.lastPlacement.Store(t.online.Placement())
	if len(data) < 4 {
		return fmt.Errorf("snapshot truncated before TLB states")
	}
	ntlbs := int(binary.LittleEndian.Uint32(data[0:4]))
	data = data[4:]
	if ntlbs != t.threads {
		return fmt.Errorf("snapshot has %d TLBs, tenant has %d threads", ntlbs, t.threads)
	}
	// Restore the TLB slots first, then attach them to a fresh view:
	// Attach absorbs the already-resident translations, rebuilding the
	// presence index without a separate serialized form.
	for i := 0; i < ntlbs; i++ {
		if t.tlbs[i], data, err = tlb.DecodeState(data); err != nil {
			return fmt.Errorf("snapshot TLB %d: %w", i, err)
		}
	}
	t.view = comm.NewTLBView(t.tlbs)
	if len(data) < 4 {
		return fmt.Errorf("snapshot truncated before dedup map")
	}
	nsrc := int(binary.LittleEndian.Uint32(data[0:4]))
	data = data[4:]
	t.appliedSources = make(map[string]uint64, nsrc)
	for i := 0; i < nsrc; i++ {
		if len(data) < 2 {
			return fmt.Errorf("snapshot dedup map truncated")
		}
		slen := int(binary.LittleEndian.Uint16(data[0:2]))
		data = data[2:]
		if len(data) < slen+8 {
			return fmt.Errorf("snapshot dedup map truncated")
		}
		t.appliedSources[string(data[:slen])] = binary.LittleEndian.Uint64(data[slen : slen+8])
		data = data[slen+8:]
	}
	if len(data) != 0 {
		return fmt.Errorf("snapshot has %d trailing bytes", len(data))
	}
	return nil
}

// --- open / recover ---

// openDurable binds the tenant to its on-disk state: create or validate
// the directory, load the snapshot if one exists, open the WAL (repairing
// any torn tail), replay the records past the snapshot, and seed the
// ingest-side dedup map from the recovered applied-side one. After it
// returns, the tenant's in-memory state equals a never-crashed tenant
// that applied exactly the surviving prefix.
func (t *tenant) openDurable(cfg Config) error {
	t.dir = tenantDir(cfg.Dir, t.id)
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	metaPath := filepath.Join(t.dir, "meta")
	if raw, err := wal.ReadBlob(metaPath); err == nil {
		id, threads, derr := decodeMeta(raw)
		if derr != nil {
			return derr
		}
		if id != t.id || threads != t.threads {
			return fmt.Errorf("%w: %q has %d threads on disk, requested %d",
				ErrTenantExists, t.id, threads, t.threads)
		}
	} else if errors.Is(err, wal.ErrNoBlob) {
		if werr := wal.WriteBlobAtomic(metaPath, encodeMeta(t.id, t.threads)); werr != nil {
			return werr
		}
	} else {
		return err
	}

	if raw, err := wal.ReadBlob(filepath.Join(t.dir, "snapshot")); err == nil {
		if rerr := t.restoreState(raw); rerr != nil {
			return fmt.Errorf("restore snapshot: %w", rerr)
		}
	} else if !errors.Is(err, wal.ErrNoBlob) {
		// The snapshot write is atomic (temp + rename), so a damaged
		// snapshot is not a crash artifact — and the log it licensed
		// compacting is gone. Fail stop instead of silently serving a
		// truncated past.
		return err
	}

	l, err := wal.Open(filepath.Join(t.dir, "wal"), wal.Options{
		SegmentBytes: cfg.WALSegmentBytes,
		Policy:       cfg.Sync,
	})
	if err != nil {
		return err
	}
	t.wlog = l
	if err := t.replayWAL(); err != nil {
		l.Close()
		return err
	}
	// A tail truncated below the snapshot must not recycle sequence
	// numbers the snapshot already covers.
	l.Reserve(t.appliedSeq + 1)
	if cfg.Sync == wal.SyncAlways {
		// Group commit (see commit.go): appends are buffered and acks wait
		// for a covering fsync. Everything that survived recovery is on
		// disk by definition, so the ack horizon starts at the log tail.
		t.groupCommit = true
	}
	t.lastAppend = l.LastSeq()
	t.ackedDurable = t.lastAppend
	t.sources = make(map[string]uint64, len(t.appliedSources))
	for s, seq := range t.appliedSources {
		t.sources[s] = seq
	}
	// Recovery folds every surviving event straight into detector state:
	// it was both ingested and applied, and nothing recovered was dropped
	// or rejected, so applied + dropped == ingested holds by construction.
	t.ingested.Store(t.applied.Load())
	t.dropped.Store(0)
	t.rejected.Store(0)
	t.sinceSnap.Store(0)
	return nil
}

// replayWAL applies every record past the snapshot through the normal
// apply path (same locking, same fault injection — the PRNG states were
// restored, so injections replay identically). A record that decodes but
// detonates the detector quarantines the tenant exactly as it would have
// live; replay stops there.
func (t *tenant) replayWAL() error {
	snapSeq := t.appliedSeq
	return t.wlog.Replay(func(seq uint64, payload []byte) error {
		if seq <= snapSeq {
			return nil
		}
		source, srcSeq, events, err := decodeWALRecord(payload, t.threads)
		if err != nil {
			return fmt.Errorf("wal seq %d: %w", seq, err)
		}
		t.applyBatch(batch{events: events, seq: seq, source: source, srcSeq: srcSeq})
		return nil
	})
}

// --- checkpoint / finalize ---

// maybeCheckpoint is the applier-driven snapshot cadence: once enough
// events have been applied since the last snapshot, write one and compact
// the log. Failures are not fatal — the WAL still has everything, and the
// unchanged counter makes the next batch retry.
func (t *tenant) maybeCheckpoint() {
	if t.wlog == nil || t.snapEvery == 0 || t.sinceSnap.Load() < t.snapEvery {
		return
	}
	t.checkpoint()
}

// checkpoint serializes the tenant state (a consistent cut under mu),
// writes it atomically, and compacts WAL segments wholly covered by it.
// snapMu serializes concurrent checkpoints (applier cadence vs an
// explicit Server.Checkpoint) so an older encoding can never overwrite a
// newer snapshot.
func (t *tenant) checkpoint() error {
	if t.wlog == nil {
		return nil
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	t.mu.Lock()
	seq := t.appliedSeq
	t.snapBuf = t.encodeStateLocked(t.snapBuf[:0])
	buf := t.snapBuf
	t.mu.Unlock()
	if err := wal.WriteBlobAtomic(filepath.Join(t.dir, "snapshot"), buf); err != nil {
		return fmt.Errorf("serve: tenant %q: snapshot: %w", t.id, err)
	}
	t.sinceSnap.Store(0)
	if _, err := t.wlog.Compact(seq); err != nil {
		return fmt.Errorf("serve: tenant %q: compact: %w", t.id, err)
	}
	return nil
}

// finalize is the graceful-shutdown epilogue (Drain, after the applier
// has exited): one last snapshot covering everything applied, a sync so
// the WAL tail is durable regardless of policy, then close. The next
// Open resumes from here with an empty replay.
func (t *tenant) finalize() error {
	if t.wlog == nil {
		return nil
	}
	err := t.checkpoint()
	if serr := t.wlog.Sync(); err == nil {
		err = serr
	}
	if cerr := t.wlog.Close(); err == nil {
		err = cerr
	}
	return err
}

// quarantineErr poisons the tenant with a non-panic fatal error (WAL
// append failure: the ack contract would be broken by continuing).
func (t *tenant) quarantineErr(err error) {
	t.quarantine.Store(&runner.PanicError{Value: err, Stack: debug.Stack()})
}
