package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildLog writes n records into dir and returns the segment paths in
// order plus each record's payload.
func buildLog(t *testing.T, dir string, n, segmentBytes int) (paths []string, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, Options{segmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("payload-%03d-%s", i, strings.Repeat("x", i%7)))
		payloads = append(payloads, p)
		if _, err := l.AppendBuffered(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segmentSuffix) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, payloads
}

// recoverCount opens dir and returns how many records replay plus whether
// truncation was reported. Recovery must never panic and never produce a
// record that was not appended verbatim.
func recoverCount(t *testing.T, dir string, payloads [][]byte) (n int, truncated bool) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after damage: %v", err)
	}
	defer l.Close()
	err = l.Replay(func(seq uint64, payload []byte) error {
		idx := int(seq) - 1
		if idx < 0 || idx >= len(payloads) {
			t.Fatalf("recovered unknown seq %d", seq)
		}
		if string(payload) != string(payloads[idx]) {
			t.Fatalf("recovered record %d differs from what was appended", seq)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay after damage: %v", err)
	}
	return n, l.Truncated != nil
}

// TestTruncateAtEveryOffset is the table-driven recovery battery of the
// issue: the log is truncated at every byte offset of its final segment —
// every record boundary and every mid-record position — and recovery must
// (a) never panic, (b) recover exactly the records wholly before the cut,
// and (c) leave the log appendable.
func TestTruncateAtEveryOffset(t *testing.T) {
	const records = 12
	master := t.TempDir()
	paths, payloads := buildLog(t, master, records, 1<<20) // single segment
	if len(paths) != 1 {
		t.Fatalf("expected a single segment, got %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries in the segment, computed from the framing.
	boundaries := []int{0}
	off := 0
	for off < len(data) {
		n, _, _, err := parseRecord(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		boundaries = append(boundaries, off)
	}
	recordsBefore := func(cut int) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(paths[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, truncated := recoverCount(t, dir, payloads)
		want := recordsBefore(cut)
		if got != want {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, got, want)
		}
		wantTrunc := cut != boundaries[len(boundaries)-1] && cut != 0 && !isBoundary(boundaries, cut)
		_ = wantTrunc // a cut exactly on a boundary is a clean (shorter) log
		if got < records && isBoundary(boundaries, cut) && truncated {
			t.Fatalf("cut at boundary %d: clean prefix misreported as truncated", cut)
		}
		if !isBoundary(boundaries, cut) && !truncated {
			t.Fatalf("cut at byte %d (mid-record): truncation not reported", cut)
		}

		// The damaged-then-recovered log must accept new appends.
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBuffered([]byte("continue")); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		l.Close()
	}
}

func isBoundary(boundaries []int, cut int) bool {
	for _, b := range boundaries {
		if b == cut {
			return true
		}
	}
	return false
}

// TestByteFlipTruncatesAtFirstBadRecord flips a byte at every offset of a
// multi-segment log (one damaged copy per offset): recovery must keep
// exactly the records before the damaged one and drop everything at and
// after it — including whole later segments.
func TestByteFlipTruncatesAtFirstBadRecord(t *testing.T) {
	const records = 30
	master := t.TempDir()
	paths, payloads := buildLog(t, master, records, 128) // several segments
	if len(paths) < 3 {
		t.Fatalf("expected several segments, got %d", len(paths))
	}

	// Per segment: record count and the boundary offsets within it.
	type segInfo struct {
		path       string
		data       []byte
		recsBefore int // records in earlier segments
		bounds     []int
	}
	var segs []segInfo
	total := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		si := segInfo{path: p, data: data, recsBefore: total, bounds: []int{0}}
		off := 0
		for off < len(data) {
			n, _, _, err := parseRecord(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += n
			si.bounds = append(si.bounds, off)
			total++
		}
		segs = append(segs, si)
	}
	if total != records {
		t.Fatalf("accounted for %d records, want %d", total, records)
	}

	copyLog := func(dst string) {
		for _, si := range segs {
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(si.path)), si.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for si, seg := range segs {
		for off := 0; off < len(seg.data); off += 3 { // every 3rd byte keeps runtime sane
			dir := t.TempDir()
			copyLog(dir)
			bad := append([]byte(nil), seg.data...)
			bad[off] ^= 0x01
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg.path)), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			got, truncated := recoverCount(t, dir, payloads)
			// The flipped byte damages the record containing that offset;
			// everything before it must survive, nothing after may.
			rec := 0
			for rec+1 < len(seg.bounds) && seg.bounds[rec+1] <= off {
				rec++
			}
			want := seg.recsBefore + rec
			if got != want {
				t.Fatalf("flip in segment %d at offset %d: recovered %d records, want %d",
					si, off, got, want)
			}
			if !truncated {
				t.Fatalf("flip in segment %d at offset %d: truncation not reported", si, off)
			}
		}
	}
}
