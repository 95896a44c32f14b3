package serve

import (
	"encoding/binary"
	"testing"
)

// TestRestoreRejectsForeignMatrixHeader: a snapshot whose matrix header
// claims another thread count is an error before anything is allocated.
// Decoding used to trust the header, so 1<<20 threads asked for an 8 TiB
// matrix and the runtime killed the process instead of failing the
// restore.
func TestRestoreRejectsForeignMatrixHeader(t *testing.T) {
	const threads = 8
	src, err := newTenant("app", threads, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	good := src.encodeStateLocked(nil)
	src.mu.Unlock()

	// The matrix header follows the six u64 counters and PRNG states.
	const matrixAt = 6 * 8
	for _, n := range []uint32{1 << 20, 1 << 24, threads / 2, threads * 2} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[matrixAt:], n)
		dst, err := newTenant("app", threads, Config{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.restoreState(bad); err == nil {
			t.Errorf("restore accepted a matrix header for %d threads", n)
		}
	}

	dst, err := newTenant("app", threads, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.restoreState(good); err != nil {
		t.Fatalf("restore rejected an honest snapshot: %v", err)
	}
}
