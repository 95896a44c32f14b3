// Package wal implements the durability layer of the mapping service: a
// segmented, length-prefixed, checksummed append-only log plus atomic
// checksummed snapshot blobs.
//
// The service's contract is that an acknowledged ingest batch survives a
// crash, so the log's failure model is asymmetric: appends must be cheap
// and recovery must be paranoid. Every record carries a CRC32 (IEEE) over
// its sequence number and payload, segments rotate at a size threshold so
// snapshots can compact the log by deleting whole files, and Open scans
// the existing segments record by record — the first torn or corrupted
// record truncates the log at that exact byte offset (and drops every
// later segment) instead of panicking or serving a silently wrong tail.
// The chaos battery in internal/serve and FuzzWALRecovery here hammer
// exactly this path: arbitrary truncation and byte flips must always
// yield a valid prefix or a clean error.
//
// Sync policy is configurable because durability and throughput trade
// off: under SyncAlways the appender calls Sync before it acknowledges (an
// acknowledged record survives machine failure), SyncInterval fsyncs on a
// timer (bounded loss window), SyncNever leaves flushing to segment
// rotation and Close (a process crash — SIGKILL — still loses nothing that
// reached the OS, but machine failure may cost the tail). Recovery handles
// all three identically: it trusts nothing past the first bad byte.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways: the appender calls Sync before it acknowledges, so an
	// acknowledged record survives machine failure. The durable default.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes and fsyncs on a background timer every
	// syncPeriod: loss after machine failure is bounded by the period.
	// Process crashes (SIGKILL) lose only userspace-buffered bytes since
	// the last flush.
	SyncInterval
	// SyncNever flushes on rotation and Close only. Fastest; a machine
	// failure may cost the whole active segment's tail.
	SyncNever
)

// ParseSyncPolicy parses the CLI spellings always|interval|never.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never", "none":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// Options tunes a Log. The zero value selects the durable default.
type Options struct {
	// Policy selects the sync policy (default SyncAlways).
	Policy SyncPolicy

	// segmentBytes overrides defaultSegmentBytes. Test-only: wal's
	// rotation and byte-flip batteries need many small segments.
	segmentBytes int
}

const (
	// defaultSegmentBytes is the rotation threshold: a segment that
	// reaches it is flushed, fsynced and closed, and the next record
	// starts a new one.
	defaultSegmentBytes = 1 << 20
	// syncPeriod is the SyncInterval flush period.
	syncPeriod = 100 * time.Millisecond
	// maxRecordBytes bounds one record's payload; larger length prefixes
	// are treated as corruption during recovery and rejected at append.
	maxRecordBytes = 16 << 20
)

// Record framing: every record is
//
//	u32le payload length
//	u32le CRC32-IEEE over (seq || payload)
//	u64le sequence number
//	payload bytes
//
// Sequence numbers are assigned by AppendBuffered, strictly increasing. Gaps are
// legal (they arise when a truncated tail is superseded by records already
// folded into a snapshot), so recovery only requires monotonicity.
const recordHeader = 4 + 4 + 8

const segmentSuffix = ".wal"

var crcTable = crc32.IEEETable

// ErrCorrupt reports a record that failed its checksum or structural
// validation during recovery. Open never returns it — corruption truncates
// the log — but ReadBlob and the low-level scanners surface it.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by operations on a closed (or aborted) log.
var ErrClosed = errors.New("wal: log closed")

// segment is one on-disk log file, named %016x.wal by its first sequence
// number.
type segment struct {
	path     string
	first    uint64 // seq of its first record (== file-name value)
	last     uint64 // seq of its last record (0 when empty)
	size     int64  // valid bytes (post-truncation)
	nrecords int
}

// Log is a segmented append-only record log rooted at one directory. It is
// safe for one appender at a time; AppendBuffered, Sync, Compact and Close
// serialize internally.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []segment // completed segments, oldest first
	active   *os.File  // current segment file (nil until first append)
	actInfo  segment
	buf      []byte // userspace append buffer (flushed per policy)
	nextSeq  uint64 // seq the next append will get
	synced   uint64 // last seq known flushed+fsynced
	closed   bool

	// Truncated reports recovery's verdict on the pre-existing files:
	// non-nil when Open found a torn or corrupted record and cut the log
	// there. The error is informational — the log is usable.
	Truncated error

	stopSync chan struct{} // interval syncer shutdown
	syncDone chan struct{}
}

// Open opens (or creates) the log rooted at dir, scanning every existing
// segment in order and truncating the log at the first torn or corrupted
// record: the file holding it is truncated at that byte offset and every
// later segment is deleted, so the surviving log is always a valid prefix.
// The verdict is recorded in Log.Truncated. New appends continue after the
// highest surviving sequence number.
func Open(dir string, opts Options) (*Log, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scan walks the existing segments oldest-first, validating every record
// and truncating at the first bad one.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64); err != nil {
			continue // foreign file; leave it alone
		}
		paths = append(paths, filepath.Join(l.dir, name))
	}
	sort.Strings(paths) // %016x names sort numerically
	prevSeq := uint64(0)
	for i, path := range paths {
		seg, bad, err := scanSegment(path, prevSeq)
		if err != nil {
			return err
		}
		if bad != nil {
			// Cut the log here: truncate this file at the bad offset and
			// drop every later segment.
			if err := os.Truncate(path, seg.size); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			for _, later := range paths[i+1:] {
				if err := os.Remove(later); err != nil {
					return fmt.Errorf("wal: drop post-corruption segment %s: %w", later, err)
				}
			}
			l.Truncated = bad
			if seg.nrecords > 0 {
				l.segments = append(l.segments, seg)
				prevSeq = seg.last
			} else if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: drop empty segment %s: %w", path, err)
			}
			break
		}
		if seg.nrecords == 0 {
			// A crash between segment creation and the first record.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: drop empty segment %s: %w", path, err)
			}
			continue
		}
		l.segments = append(l.segments, seg)
		prevSeq = seg.last
	}
	if prevSeq >= l.nextSeq {
		l.nextSeq = prevSeq + 1
	}
	l.synced = prevSeq
	return nil
}

// scanSegment validates one segment file record by record. It returns the
// segment info covering the valid prefix plus, when a torn or corrupted
// record was found, a non-nil bad error describing it (seg.size is then
// the truncation offset).
func scanSegment(path string, prevSeq uint64) (seg segment, bad error, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	first, perr := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), segmentSuffix), 16, 64)
	if perr != nil {
		return segment{}, nil, fmt.Errorf("wal: segment name %s: %w", path, perr)
	}
	seg = segment{path: path, first: first}
	off := 0
	for off < len(data) {
		n, seq, payload, rerr := parseRecord(data[off:])
		if rerr != nil {
			return seg, fmt.Errorf("%s at offset %d: %w", filepath.Base(path), off, rerr), nil
		}
		if seq <= prevSeq {
			return seg, fmt.Errorf("%s at offset %d: %w: sequence %d not after %d",
				filepath.Base(path), off, ErrCorrupt, seq, prevSeq), nil
		}
		_ = payload
		prevSeq = seq
		seg.last = seq
		seg.nrecords++
		off += n
		seg.size = int64(off)
	}
	return seg, nil, nil
}

// parseRecord decodes one record from the front of data, returning its
// total length. A short buffer, oversized length or checksum mismatch is
// an ErrCorrupt-wrapped error.
func parseRecord(data []byte) (n int, seq uint64, payload []byte, err error) {
	if len(data) < recordHeader {
		return 0, 0, nil, fmt.Errorf("%w: torn header (%d bytes)", ErrCorrupt, len(data))
	}
	plen := int(binary.LittleEndian.Uint32(data[0:4]))
	if plen > maxRecordBytes {
		return 0, 0, nil, fmt.Errorf("%w: length %d exceeds record cap %d", ErrCorrupt, plen, maxRecordBytes)
	}
	if len(data) < recordHeader+plen {
		return 0, 0, nil, fmt.Errorf("%w: torn payload (%d of %d bytes)", ErrCorrupt, len(data)-recordHeader, plen)
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	seq = binary.LittleEndian.Uint64(data[8:16])
	payload = data[recordHeader : recordHeader+plen]
	crc := crc32.Update(crc32.Checksum(data[8:16], crcTable), crcTable, payload)
	if crc != want {
		return 0, 0, nil, fmt.Errorf("%w: checksum mismatch on record %d", ErrCorrupt, seq)
	}
	return recordHeader + plen, seq, payload, nil
}

// Replay calls fn for every record currently in the log, oldest first,
// including records buffered but not yet flushed (the in-memory buffer is
// flushed first). Replay stops early if fn returns an error.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.flushLocked(false); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := append([]segment(nil), l.segments...)
	if l.active != nil && l.actInfo.nrecords > 0 {
		segs = append(segs, l.actInfo)
	}
	l.mu.Unlock()

	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		if int64(len(data)) > seg.size {
			data = data[:seg.size]
		}
		off := 0
		for off < len(data) {
			n, seq, payload, err := parseRecord(data[off:])
			if err != nil {
				// scan() validated these bytes at Open and appends are
				// framed by us, so this indicates concurrent external
				// damage; surface it rather than guessing.
				return fmt.Errorf("wal: replay %s at offset %d: %w", seg.path, off, err)
			}
			if err := fn(seq, payload); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

// AppendBuffered adds one record and returns its sequence number. The
// bytes reach the userspace buffer (and the OS only on rotation, an
// interval flush or Replay); making them durable is the caller's job via
// Sync. Group committers batch many appends under a single fsync this way
// while still releasing acks only after that fsync covers them.
func (l *Log) AppendBuffered(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), maxRecordBytes)
	}
	if l.active == nil {
		if err := l.openSegmentLocked(); err != nil {
			return 0, err
		}
	}
	seq := l.nextSeq
	l.nextSeq++

	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	if l.actInfo.nrecords == 0 {
		l.actInfo.first = seq
	}
	l.actInfo.last = seq
	l.actInfo.nrecords++
	l.actInfo.size += int64(recordHeader + len(payload))

	if l.actInfo.size >= int64(l.opts.segmentBytes) {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// NextSeq returns the sequence number the next append will be assigned.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// LastSeq returns the sequence number of the newest record (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeqLocked()
}

func (l *Log) lastSeqLocked() uint64 {
	if l.actInfo.nrecords > 0 {
		return l.actInfo.last
	}
	if n := len(l.segments); n > 0 {
		return l.segments[n-1].last
	}
	return 0
}

// Reserve raises the next append sequence number to at least next. The
// durability layer uses it after replaying a snapshot newer than the
// surviving log tail, so re-appended records never reuse a sequence number
// a snapshot already covers.
func (l *Log) Reserve(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next > l.nextSeq {
		l.nextSeq = next
	}
}

// Synced returns the newest sequence number known flushed and fsynced.
func (l *Log) Synced() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// openSegmentLocked starts the segment whose first record will be nextSeq.
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, fmt.Sprintf("%016x%s", l.nextSeq, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active = f
	l.actInfo = segment{path: path, first: l.nextSeq}
	return nil
}

// flushLocked writes the userspace buffer to the active segment and, when
// sync is true, fsyncs it.
func (l *Log) flushLocked(sync bool) error {
	if len(l.buf) > 0 {
		if _, err := l.active.Write(l.buf); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		l.buf = l.buf[:0]
	}
	if sync && l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		if l.actInfo.last > l.synced {
			l.synced = l.actInfo.last
		}
	}
	return nil
}

// rotateLocked flushes, fsyncs and closes the active segment and retires
// it to the completed list.
func (l *Log) rotateLocked() error {
	if l.active == nil {
		return nil
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if l.actInfo.nrecords > 0 {
		l.segments = append(l.segments, l.actInfo)
	} else if err := os.Remove(l.actInfo.path); err != nil {
		return fmt.Errorf("wal: drop empty segment: %w", err)
	}
	l.active = nil
	l.actInfo = segment{}
	return nil
}

// Sync flushes the userspace buffer and fsyncs the active segment — the
// drain path's explicit barrier, independent of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active == nil {
		return nil
	}
	return l.flushLocked(true)
}

// Compact deletes every completed segment whose records are all covered by
// a snapshot through sequence number through. The active segment is never
// deleted. Returns how many segments were removed.
func (l *Log) Compact(through uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 0 && l.segments[0].last <= through {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	return removed, nil
}

// Close flushes, fsyncs and closes the log. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushLocked(true)
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.mu.Unlock()
	l.stopSyncLoop()
	return err
}

// Abort closes the log WITHOUT flushing the userspace buffer — the crash
// simulation used by the chaos battery: whatever had not reached the OS is
// lost, exactly as if the process had been SIGKILLed mid-append.
func (l *Log) Abort() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.buf = nil
		if l.active != nil {
			l.active.Close()
			l.active = nil
		}
	}
	l.mu.Unlock()
	l.stopSyncLoop()
}

func (l *Log) stopSyncLoop() {
	if l.stopSync != nil {
		select {
		case <-l.stopSync:
		default:
			close(l.stopSync)
		}
		<-l.syncDone
		l.stopSync = nil
	}
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(syncPeriod)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.active != nil {
				l.flushLocked(true)
			}
			l.mu.Unlock()
		case <-l.stopSync:
			return
		}
	}
}
