package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// validLogBytes frames the given payloads exactly as AppendBuffered does and
// returns the raw segment bytes — the honest starting point the fuzzer
// mutates.
func validLogBytes(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for i, p := range payloads {
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(i+1))
		crc := crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, p)
		binary.LittleEndian.PutUint32(hdr[4:8], crc)
		buf.Write(hdr[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// FuzzWALRecovery feeds arbitrary bytes to the recovery scanner as a
// segment file. Whatever the damage — truncation, bit flips, splices,
// pure garbage — recovery must:
//
//   - never panic and never return a dirty error from Open;
//   - replay only records that parse and checksum, with strictly
//     increasing sequence numbers;
//   - be idempotent: re-opening the repaired directory reports no further
//     truncation and replays byte-identical records.
func FuzzWALRecovery(f *testing.F) {
	base := validLogBytes(
		[]byte("alpha"),
		[]byte(""),
		[]byte("the quick brown fox"),
		bytes.Repeat([]byte{0xEE}, 100),
		[]byte("tail"),
	)
	f.Add(base)                             // clean log
	f.Add(base[:len(base)-3])               // torn tail
	f.Add(base[:recordHeader/2])            // torn header
	f.Add([]byte{})                         // empty file
	f.Add(bytes.Repeat([]byte{0xFF}, 64))   // garbage
	flipped := append([]byte(nil), base...) // checksum-breaking flip
	flipped[recordHeader+2] ^= 0x80
	f.Add(flipped)
	spliced := append(append([]byte(nil), base[:30]...), base...) // misaligned splice
	f.Add(spliced)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segmentSuffix))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// SyncNever: fsync adds nothing to the recovery logic under test
		// and would dominate the fuzzing loop.
		l, err := Open(dir, Options{Policy: SyncNever})
		if err != nil {
			t.Fatalf("Open on damaged log must repair, not fail: %v", err)
		}
		var seqs []uint64
		var payloads [][]byte
		prev := uint64(0)
		err = l.Replay(func(seq uint64, payload []byte) error {
			if seq <= prev {
				t.Fatalf("replay yielded non-increasing seq %d after %d", seq, prev)
			}
			prev = seq
			seqs = append(seqs, seq)
			payloads = append(payloads, append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			t.Fatalf("Replay after repair: %v", err)
		}
		// The repaired log accepts appends past the surviving tail.
		appended, err := l.AppendBuffered([]byte("post-repair"))
		if err != nil {
			t.Fatalf("AppendBuffered after repair: %v", err)
		}
		if appended <= prev {
			t.Fatalf("post-repair append seq %d not past surviving tail %d", appended, prev)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Idempotence: the repaired directory is now a clean log.
		l2, err := Open(dir, Options{Policy: SyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if l2.Truncated != nil {
			t.Fatalf("repair was not idempotent: second Open still truncates: %v", l2.Truncated)
		}
		i := 0
		err = l2.Replay(func(seq uint64, payload []byte) error {
			if i < len(seqs) {
				if seq != seqs[i] || !bytes.Equal(payload, payloads[i]) {
					t.Fatalf("record %d changed across reopen", i)
				}
			} else if seq != appended || !bytes.Equal(payload, []byte("post-repair")) {
				t.Fatalf("unexpected extra record seq=%d", seq)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(seqs)+1 {
			t.Fatalf("second replay saw %d records, want %d", i, len(seqs)+1)
		}
	})
}
