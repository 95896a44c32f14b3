package comm

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatrixAdd measures the matrix's accumulation path — the
// per-event cost every detector pays — at 128 and 1024 threads, and
// reports an events/sec custom metric (one event is one Add).
// scripts/bench.sh records these numbers in BENCH_engine.json.
func BenchmarkMatrixAdd(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m := NewMatrix(n)
			rng := rand.New(rand.NewSource(int64(n)))
			// A bounded random neighborhood per thread, like real detector
			// traffic: thread i talks to ~16 threads near i.
			src := make([]int, 4096)
			dst := make([]int, 4096)
			for k := range src {
				i := rng.Intn(n)
				j := (i + 1 + rng.Intn(16)) % n
				src[k], dst[k] = i, j
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & 4095
				m.Add(src[k], dst[k], 1)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
