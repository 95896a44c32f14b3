// Command mapperd is the mapping-as-a-service daemon: it listens on TCP,
// ingests TLB-sample streams from many concurrent clients over the serve
// wire protocol, maintains sharded per-tenant detector state, and answers
// placement queries through the confidence-gated online mapper within a
// per-request deadline. SIGTERM/SIGINT stops accepting, drains every
// tenant queue, and prints what was served.
//
// Usage:
//
//	mapperd [-addr HOST:PORT] [-shards N] [-queue-cap N] [-deadline D]
//	        [-faults SPEC] [-fault-seed N]
//	        [-dir PATH] [-sync always|interval|never] [-snapshot-every N]
//	        [-recovery-workers N]
//	mapperd -selftest [-conns N] [-tenants N] [-threads N] [-events N]
//	        [-batch N] [-query-every N] [-seed N] [-reconnect] [-dir PATH]
//	mapperd -verify-recovery -dir PATH
//
// With -dir the daemon is durable: every acknowledged batch is appended to
// a per-tenant write-ahead log under PATH (fsynced per -sync), snapshots
// compact the log every -snapshot-every applied events, and a restart —
// clean or after SIGKILL — recovers every tenant from snapshot plus WAL
// tail before accepting connections. SIGTERM/SIGINT additionally writes a
// final snapshot and syncs the logs before exiting, so a drained daemon
// restarts with nothing to replay.
//
// -verify-recovery opens -dir, runs the full recovery path, prints one
// "recovery OK ..." banner with what was recovered, and exits — non-zero
// if any tenant fails to come back. The CI crash-smoke stage SIGKILLs a
// live ingesting daemon and then runs this under a timeout.
//
// -selftest starts the daemon on an ephemeral port, drives it with the
// synthetic client fleet (internal/serve/loadgen), drains, and prints the
// sustained events/sec, queries/sec and p50/p99 query latency, ending
// with one machine-readable "BENCH ..." line that scripts/bench.sh renders
// into BENCH_serve.json and gates in check mode. It exits non-zero on any
// hangup, ERR response, or unclean drain — which is what makes it the CI
// serve-smoke stage. -reconnect makes the fleet sequenced: every
// connection deliberately drops and resumes mid-stream through the
// idempotent-reconnect protocol, and the selftest asserts nothing was
// double-applied.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tlbmap/internal/fault"
	"tlbmap/internal/serve"
	"tlbmap/internal/serve/loadgen"
	"tlbmap/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mapperd: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "listen address")
		shards    = flag.Int("shards", 16, "tenant map stripes")
		queueCap  = flag.Int("queue-cap", 256, "per-tenant ingest queue capacity (batches)")
		deadline  = flag.Duration("deadline", 100*time.Millisecond, "per-query mapping budget")
		faults    = flag.String("faults", "", "fault spec armed on the ingest path (sampleloss[:rate],shootdown[:rate])")
		faultSeed = flag.Int64("fault-seed", 1, "fault injection seed")

		dir        = flag.String("dir", "", "durable state directory (empty = in-memory only)")
		syncSpec   = flag.String("sync", "always", "WAL sync policy: always|interval|never")
		snapEvery  = flag.Int("snapshot-every", 0, "snapshot+compact every N applied events (0 = default 4096)")
		recWorkers = flag.Int("recovery-workers", 0, "tenants recovered in parallel on startup (0 = GOMAXPROCS)")
		verify     = flag.Bool("verify-recovery", false, "recover every tenant from -dir, print a summary, and exit")

		selftest   = flag.Bool("selftest", false, "run the synthetic client fleet against an in-process daemon and exit")
		conns      = flag.Int("conns", 256, "selftest: fleet size")
		tenants    = flag.Int("tenants", 16, "selftest: tenant count")
		threads    = flag.Int("threads", 8, "selftest: threads per tenant (power of two)")
		events     = flag.Int("events", 1000, "selftest: events per connection")
		batch      = flag.Int("batch", 50, "selftest: events per batch")
		queryEvery = flag.Int("query-every", 4, "selftest: query every N batches (0 = never)")
		seed       = flag.Int64("seed", 1, "selftest: fleet seed")
		reconnect  = flag.Bool("reconnect", false, "selftest: sequenced fleet with injected mid-stream disconnects")
	)
	flag.Parse()

	plan, err := fault.ParsePlan(*faults, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := wal.ParseSyncPolicy(*syncSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{
		Shards:          *shards,
		QueueCap:        *queueCap,
		QueryDeadline:   *deadline,
		Faults:          plan,
		Dir:             *dir,
		Sync:            policy,
		SnapshotEvery:   *snapEvery,
		RecoveryWorkers: *recWorkers,
	}

	if *verify {
		if *dir == "" {
			log.Fatal("-verify-recovery requires -dir")
		}
		if err := runVerifyRecovery(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *selftest {
		if err := runSelftest(srv, *addr, loadgen.Options{
			Conns: *conns, Tenants: *tenants, Threads: *threads,
			EventsPerConn: *events, Batch: *batch, QueryEvery: *queryEvery,
			Seed: *seed, Reconnect: *reconnect,
		}, *deadline); err != nil {
			log.Fatal(err)
		}
		return
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (shards=%d queue-cap=%d deadline=%v faults=%s dir=%q sync=%s)",
		l.Addr(), *shards, *queueCap, *deadline, plan, *dir, policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		log.Printf("%v: draining", s)
		l.Close()
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	st := srv.Stats()
	log.Printf("drained cleanly: tenants=%d applied=%d dropped=%d queries=%d degraded=%d quarantined=%d",
		st.Tenants, st.Applied, st.Dropped, st.Queries, st.Degraded, st.Quarantines)
}

// newServer builds the configured server: durable (recovering whatever
// already lives under cfg.Dir) when a state directory is set, in-memory
// otherwise.
func newServer(cfg serve.Config) (*serve.Server, error) {
	if cfg.Dir == "" {
		return serve.New(cfg), nil
	}
	return serve.Open(cfg)
}

// runVerifyRecovery runs the full recovery path over cfg.Dir — snapshot
// restore plus WAL-tail replay for every tenant on disk — then drains
// (writing fresh snapshots) and prints one machine-checkable banner. Any
// tenant that cannot come back makes the whole run fail.
func runVerifyRecovery(cfg serve.Config) error {
	srv, err := serve.Open(cfg)
	if err != nil {
		return fmt.Errorf("recovery FAILED: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("recovery FAILED: drain: %w", err)
	}
	st := srv.Stats()
	if st.Quarantines > 0 {
		return fmt.Errorf("recovery FAILED: %d tenants quarantined", st.Quarantines)
	}
	fmt.Printf("recovery OK: tenants=%d applied=%d lost=%d storms=%d\n",
		st.Tenants, st.Applied, st.LostSamples, st.Storms)
	return nil
}

// runSelftest is the in-process fleet run: ephemeral listener, loadgen
// burst, drain, consistency checks, report.
func runSelftest(srv *serve.Server, addr string, opts loadgen.Options, deadline time.Duration) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		host = "127.0.0.1"
	}
	l, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	target := l.Addr().String()
	opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", target) }
	report, err := loadgen.Run(opts)
	if err != nil {
		return err
	}

	l.Close()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()

	// Batches per sync is the mean group-commit round: how many acked
	// batches one fsync retired (0 syncs: not durable under -sync always).
	perSync := 0.0
	if st.Syncs > 0 {
		perSync = float64(report.Batches) / float64(st.Syncs)
	}
	fmt.Printf("mapperd selftest: %s\n", report)
	fmt.Printf("  drained cleanly: tenants=%d ingested=%d applied=%d dropped=%d lost=%d storms=%d degraded=%d quarantined=%d syncs=%d batches/sync=%.1f\n",
		st.Tenants, st.Ingested, st.Applied, st.Dropped, st.LostSamples, st.Storms, st.Degraded, st.Quarantines,
		st.Syncs, perSync)
	fmt.Printf("BENCH conns=%d events_per_sec=%.0f queries_per_sec=%.0f p50_us=%d p99_us=%d\n",
		report.Conns, report.EventsPerSec, report.QueriesPerSec,
		report.QueryP50.Microseconds(), report.QueryP99.Microseconds())

	switch {
	case report.HangUps > 0:
		return fmt.Errorf("selftest: %d connections hung up", report.HangUps)
	case report.Errors > 0:
		return fmt.Errorf("selftest: %d ERR responses", report.Errors)
	case report.Events == 0 || report.EventsPerSec <= 0:
		return fmt.Errorf("selftest: no events served")
	case st.Applied+st.Dropped != st.Ingested:
		return fmt.Errorf("selftest: unclean drain: ingested=%d applied=%d dropped=%d",
			st.Ingested, st.Applied, st.Dropped)
	case st.Quarantines > 0:
		return fmt.Errorf("selftest: %d tenants quarantined", st.Quarantines)
	case report.QueryP99 > deadline && report.Queries > 0:
		return fmt.Errorf("selftest: p99 query latency %v exceeds deadline %v", report.QueryP99, deadline)
	}
	return nil
}
