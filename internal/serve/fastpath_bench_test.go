package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// The serve benchmarks use chunky operations — one op is a fixed block of
// work, not one request — so even a fixed `-benchtime Nx` of a few hundred
// ops (what bench.sh check runs per sample) measures thousands of events.

// BenchmarkIngestParse is the wire hot path: one op pushes 256 pipelined
// E lines of 50 events each through session.handle (exactly what ServeConn
// executes per line) on an in-memory tenant, then waits for the applier to
// drain. Parse, batch copy, enqueue, apply, response build — no sockets.
func BenchmarkIngestParse(b *testing.B) {
	const linesPerOp, per = 256, 50
	s := New(Config{QueueCap: 512})
	defer s.Drain(context.Background())
	sess := &session{srv: s}
	resp := make([]byte, 0, 256)
	resp, _ = sess.handle([]byte("HELLO bench 8"), resp[:0])
	if string(resp) != "OK" {
		b.Fatalf("HELLO: %s", resp)
	}
	tn, err := s.lookup("bench")
	if err != nil {
		b.Fatal(err)
	}
	lines := ingestLines(1, 8, linesPerOp, per)
	var sent uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			resp, _ = sess.handle(line, resp[:0])
			if len(resp) < 2 || resp[0] != 'O' {
				b.Fatalf("ingest: %s", resp)
			}
		}
		sent += linesPerOp * per
		for tn.applied.Load() < sent {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkWALGroupCommit measures the durable ack path under SyncAlways:
// one op pushes 256 sequenced 32-event batches through IngestFrom, spread
// over N concurrent writers (each its own source). Every ack waits for a
// covering group fsync; more writers should coalesce into fewer fsyncs.
func BenchmarkWALGroupCommit(b *testing.B) {
	const batchesPerOp, per = 256, 32
	for _, writers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			s, err := Open(Config{Dir: b.TempDir(), Sync: wal.SyncAlways, SnapshotEvery: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Drain(context.Background())
			if err := s.CreateTenant("gc", 8); err != nil {
				b.Fatal(err)
			}
			events := ingestEvents(per)
			seqs := make([]uint64, writers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					share := batchesPerOp / writers
					if w < batchesPerOp%writers {
						share++
					}
					wg.Add(1)
					go func(w, share int) {
						defer wg.Done()
						source := fmt.Sprintf("w%02d", w)
						for k := 0; k < share; k++ {
							seqs[w]++
							if err := s.IngestFrom("gc", source, seqs[w], events); err != nil {
								b.Errorf("writer %d: %v", w, err)
								return
							}
						}
					}(w, share)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchesPerOp*per)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// ingestEvents builds one fixed valid batch for the WAL benchmarks.
func ingestEvents(per int) []Event {
	events := make([]Event, per)
	for i := range events {
		th := i % 8
		events[i] = Event{Thread: int32(th), Page: vm.Page(th*64 + i%96)}
	}
	return events
}

// BenchmarkRecovery measures serve.Open on a crashed durable state: 16
// tenants with full WAL tails (~4096 events each), recovered with 1 or 4
// workers. One op is one complete Open; the disk state is read-only during
// recovery, so every op replays the identical bytes.
func BenchmarkRecovery(b *testing.B) {
	const (
		tenants  = 16
		nbatches = 32
		per      = 128
	)
	dir := b.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 1 << 20}
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("app-%02d", ti)
		if err := s.CreateTenant(id, 8); err != nil {
			b.Fatal(err)
		}
		for bi, evs := range chaosBatches(int64(ti+1), 8, nbatches, per) {
			if err := s.IngestFrom(id, "src", uint64(bi+1), evs); err != nil {
				b.Fatal(err)
			}
		}
	}
	crashServer(s)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := cfg
			cfg.RecoveryWorkers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				crashServer(r)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*tenants*nbatches*per)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
