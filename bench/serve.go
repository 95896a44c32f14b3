package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tlbmap/internal/mapping"
	"tlbmap/internal/serve"
	"tlbmap/internal/topology"
	"tlbmap/internal/wal"
)

// serveProfile is one serving workload: the traffic shape, the ladder of
// offered rates and the latency limit its knee is judged against.
type serveProfile struct {
	durable    bool
	threads    int // per tenant; one tenant per connection
	batch      int // events per E line
	queryEvery int // a Q after every queryEvery batches
	// rungs are the offered loads in events per second, low to high; the
	// middle one is the gate rung the curve.gate latencies come from.
	rungs [3]float64
	slo   time.Duration // ack p99 limit for serve.knee_eps
}

// serveIngest exercises the wire protocol and the per-tenant applier of an
// in-memory server; there is no WAL, and 8-thread mapping is cheap.
var serveIngest = serveProfile{
	threads: 8, batch: 50, queryEvery: 20,
	rungs: [3]float64{2e6, 4e6, 8e6}, slo: 10 * time.Millisecond,
}

// serveDurable puts an fsync behind every acknowledged batch (WAL group
// commit under wal.SyncAlways) and maps 64-thread tenants on frequent
// queries, so reads run beside durable writes.
var serveDurable = serveProfile{
	durable: true, threads: 64, batch: 50, queryEvery: 4,
	rungs: [3]float64{1e5, 2.5e5, 4e5}, slo: 50 * time.Millisecond,
}

// Shares of --seconds given to the phases of a serving run. The saturation
// pass, which the end-to-end throughput comes from, gets half, so its
// median is taken over ten one-second windows at --seconds 20.
const (
	lowShare, gateShare, highShare, saturationShare = 0.10, 0.30, 0.10, 0.50
	// directShare and walShare are extra phases of a traced run.
	directShare, walShare = 0.10, 0.05
)

// saturationDepth is the closed-loop pipeline depth per connection.
const saturationDepth = 8

// lateLimit invalidates a gate rung whose generator ran later than this at
// p99. A tick-paced generator cannot do better than one tick plus the host
// timer's wake-up granularity (sleeps on a 2-core Xeon host overshoot by up
// to 1.13 ms at p99), and at the gate rate it shares the two cores with the
// server; a sleep-per-batch generator runs 16-27 ms late here.
const lateLimit = 5 * time.Millisecond

// spanSample records one request in this many as spans.
const spanSample = 64

// rig is a running server with the benchmark's connections bound to it.
type rig struct {
	cfg    serve.Config
	srv    *serve.Server
	ln     net.Listener
	served chan error
	conns  []*clientConn
}

// start builds the set-up of a serving run: the traffic pools, the server
// (serve.Open on a fresh directory when durable), a loopback listener and
// one connection per worker, each bound to its own tenant.
func (p serveProfile) start(r *run) (*rig, error) {
	g := &rig{served: make(chan error, 1)}
	pools := make([]*pool, r.workers)
	for i := range pools {
		pools[i] = newPool(r.seed, i, p.threads, p.batch)
	}
	var err error
	if p.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "durable-")
		if err != nil {
			return nil, err
		}
		g.cfg = serve.Config{Dir: dir, Sync: wal.SyncAlways}
		if g.srv, err = serve.Open(g.cfg); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		g.srv = serve.New(g.cfg)
	}
	if g.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		g.discard()
		return nil, err
	}
	go func() { g.served <- g.srv.Serve(g.ln) }()
	for i, pl := range pools {
		conn, err := net.Dial("tcp", g.ln.Addr().String())
		if err != nil {
			g.discard()
			return nil, err
		}
		c, err := dialTenant(conn, fmt.Sprintf("tenant-%d", i), p.threads, pl)
		if err != nil {
			g.discard()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

// stop closes the connections and the listener, then drains the server.
func (g *rig) stop() (time.Duration, error) {
	var errs []error
	for _, c := range g.conns {
		errs = append(errs, c.close())
	}
	g.conns = nil
	if g.ln != nil {
		g.ln.Close()
		errs = append(errs, <-g.served)
		g.ln = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	errs = append(errs, g.srv.Drain(ctx))
	return time.Since(start), errors.Join(errs...)
}

// discard stops the rig and deletes its durable directory. Set-up error
// paths call it to release what was built and ignore its error: the
// set-up error is the one to report.
func (g *rig) discard() error {
	_, err := g.stop()
	if g.cfg.Dir != "" {
		err = errors.Join(err, os.RemoveAll(g.cfg.Dir))
	}
	return err
}

// tenantMachine is the topology the server gives a tenant of the given
// thread count, as internal/serve's machineFor picks it: one socket of
// 4-core L2 groups below 32 threads, topology.Manycore from 32 up.
// TestTenantMachineMatchesServer ties the two together.
func tenantMachine(threads int) *topology.Machine {
	if threads >= 32 {
		return topology.Manycore(threads)
	}
	perL2 := min(threads, 4)
	return topology.MultiSocket(1, threads/perL2, perL2)
}

func runServe(r *run, p serveProfile) error {
	start := time.Now()
	g, err := p.start(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupDone(start)
	if g.cfg.Dir != "" {
		defer os.RemoveAll(g.cfg.Dir)
	}
	// The remaining set-up repetitions build and discard a second rig
	// between later traffic phases, so setup_s samples the host at
	// different moments of the run. The discarded rig's garbage is
	// collected at once, so no collection it triggers lands in the next
	// phase; no repetition precedes the gate rung.
	setUpAgain := func() error {
		if !r.moreSetups() {
			return nil
		}
		start := time.Now()
		extra, err := p.start(r)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupDone(start)
		if err := extra.discard(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
		runtime.GC()
		return nil
	}
	seconds := func(share float64) time.Duration {
		if r.smoke {
			return 500 * time.Millisecond
		}
		return time.Duration(share * r.seconds * float64(time.Second))
	}
	var tenants []string
	for _, c := range g.conns {
		tenants = append(tenants, c.tenant)
	}

	// Traced runs poll the tenants' queue depth throughout the traffic.
	var queueMax int
	stopPoll := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if r.tr == nil {
			return
		}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				for _, id := range tenants {
					if snap, err := g.srv.Snapshot(id); err == nil {
						queueMax = max(queueMax, snap.QueueLen)
					}
				}
			}
		}
	}()

	var total, gate phaseResult
	var gateCPU float64
	knee := 0.0
	for k, rate := range p.rungs {
		role := [3]string{"low", "gate", "high"}[k]
		dur := seconds([3]float64{lowShare, gateShare, highShare}[k])
		cpu0 := cpuSeconds()
		res := openLoop(g.conns, rate, dur, p.batch, p.queryEvery, r.tr, spanSample)
		cpu := cpuSeconds() - cpu0
		total.merge(res.counts())
		p99 := median(windowPercentiles(res.acks, 99))
		achieved := float64(res.events) / max(dur.Seconds(), res.lastAnswer)
		late := percentile(sortedCopy(res.late), 99)
		r.logf("rung %s %.0f events/s for %v: ack p99 %.3f ms (%d acks), achieved %.0f events/s, "+
			"generator late p99 %.3f ms, backlog max %d, failed %d (refused %d, unsent %d)",
			role, rate, dur, p99*1e3, len(res.acks), achieved, late*1e3, res.backlogMax, res.failed(), res.refused, res.unsent)
		r.set("curve."+role+".ack_p99_ms", p99*1e3)
		r.set("curve."+role+".achieved_eps", achieved)
		if p99 <= p.slo.Seconds() && achieved >= 0.98*rate && res.failed() == 0 {
			knee = rate
		}
		if role == "gate" {
			gate, gateCPU = res, cpu
			r.set("loadgen.late_p99_ms", late*1e3)
			r.set("loadgen.backlog_max", float64(res.backlogMax))
			// A refused or unsent request is a failed one (counted in the
			// result's failed); any other ERR or a missing answer is a
			// protocol error.
			if res.errs > 0 || res.unanswered > 0 {
				r.broken("gate rung: %d ERR answers, %d unanswered requests", res.errs, res.unanswered)
			}
			// A late generator makes the gate curve untrustworthy, not the
			// server's output wrong, and no end-to-end metric comes from
			// it, so it is flagged rather than failed.
			if late > lateLimit.Seconds() {
				r.logf("WARNING: gate rung invalid: the generator ran %.3f ms late at p99 (limit %v)", late*1e3, lateLimit)
			}
		}
		if role != "low" {
			if err := setUpAgain(); err != nil {
				return err
			}
		}
	}
	r.set("serve.knee_eps", knee)
	for _, m := range []struct {
		name string
		obs  []timed
		p    float64
	}{
		{"curve.gate.ack_p50_ms", gate.acks, 50},
		{"curve.gate.query_p50_ms", gate.queries, 50}, {"curve.gate.query_p99_ms", gate.queries, 99},
	} {
		r.set(m.name, median(windowPercentiles(m.obs, m.p))*1e3)
	}
	for _, m := range []struct {
		what string
		obs  []timed
	}{{"ack", gate.acks}, {"query", gate.queries}} {
		d := durations(m.obs)
		p, v, n := tail(d)
		r.logf("gate %s latency over the whole rung: median %.3f ms, p%g %.3f ms of %d", m.what, median(d)*1e3, p, v*1e3, n)
	}
	r.set("process.cpu_us_per_unit", gateCPU/float64(gate.events)*1e6)

	// Saturation: closed loop at pipeline depth 8. A traced run spends the
	// first half untraced and the second half traced; the extra time the
	// traced half would need for the untraced half's work is the tracing
	// overhead.
	satDur := seconds(saturationShare)
	var rates []float64
	var sat phaseResult
	if r.tr == nil {
		sat, rates = closedLoop(g.conns, satDur, saturationDepth, p.queryEvery, nil, spanSample)
	} else {
		half := satDur / 2
		plain, plainRates := closedLoop(g.conns, half, saturationDepth, p.queryEvery, nil, spanSample)
		traced, tracedRates := closedLoop(g.conns, half, saturationDepth, p.queryEvery, r.tr, spanSample)
		sat.merge(plain)
		sat.merge(traced)
		rates = append(plainRates, tracedRates...)
		if traced.events > 0 {
			r.set("tracing.overhead_s", half.Seconds()*(float64(plain.events)/float64(traced.events)-1))
		}
	}
	if len(rates) == 0 {
		// A sub-second saturation phase (smoke runs) has no whole window.
		rates = []float64{float64(sat.events) / satDur.Seconds()}
	}
	total.merge(sat)
	r.set("units_per_s", median(rates))
	r.logf("saturation: median %.0f events/s over one-second windows %.0f", median(rates), rates)
	for r.moreSetups() {
		if err := setUpAgain(); err != nil {
			return err
		}
	}

	var directEvents uint64
	if r.tr != nil {
		ingest, query, events, calls, failed := directPass(g, p, p.rungs[1], seconds(directShare), r.tr)
		directEvents = events
		r.attempted += calls
		r.failed += failed
		in := sortedCopy(ingest)
		q := sortedCopy(query)
		r.set("serve.ingest_us_p50", percentile(in, 50)*1e6)
		r.set("serve.ingest_us_p99", percentile(in, 99)*1e6)
		r.set("serve.query_us_p50", percentile(q, 50)*1e6)
		r.set("serve.query_us_p99", percentile(q, 99)*1e6)
		r.set("protocol.wire_us_p50", r.metrics["curve.gate.ack_p50_ms"]*1e3-percentile(in, 50)*1e6)
	}
	close(stopPoll)
	<-polled
	r.set("serve.queue_len_max", float64(queueMax))

	r.attempted += total.sent
	r.failed += total.failed()
	if total.badPlacements > 0 {
		r.broken("%d query answers were not a permutation of the tenant's threads", total.badPlacements)
	}

	sp := r.tr.begin("serve.drain", 0, "drain")
	drain, err := g.stop()
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	r.set("serve.drain_s", drain.Seconds())
	st := g.srv.Stats()
	r.set("serve.overloads", float64(st.Overloads))
	r.set("serve.degraded", float64(st.Degraded))
	r.logf("server: ingested %d applied %d dropped %d rejected %d queries %d degraded %d quarantined %d",
		st.Ingested, st.Applied, st.Dropped, st.Rejected, st.Queries, st.Degraded, st.Quarantines)
	switch {
	case st.Applied+st.Dropped != st.Ingested:
		r.broken("after drain applied %d + dropped %d != ingested %d", st.Applied, st.Dropped, st.Ingested)
	case st.Dropped != 0:
		r.broken("%d accepted events were dropped", st.Dropped)
	case st.Quarantines != 0:
		r.broken("%d tenants quarantined", st.Quarantines)
	}
	if acked := total.events + directEvents; st.Ingested != acked {
		r.broken("server ingested %d events, clients were acknowledged %d", st.Ingested, acked)
	}

	// Placement quality: what the tenants' mapping algorithm (the one
	// behind Q) makes of each tenant's final matrix, against the identity.
	// The placement a Q answer holds also depends on when earlier queries
	// fell (the online mapper's confidence gate), so it is checked as a
	// permutation above but not scored.
	snaps := map[string]*serve.TenantSnapshot{}
	var ratios []float64
	machine := tenantMachine(p.threads)
	for _, id := range tenants {
		snap, err := g.srv.Snapshot(id)
		if err != nil {
			return err
		}
		snaps[id] = snap
		place, err := mapping.NewAuto().Map(snap.Matrix, machine)
		if err != nil {
			return fmt.Errorf("tenant %s: mapping: %w", id, err)
		}
		if ratio, ok := costRatio(snap.Matrix, machine, place); ok {
			ratios = append(ratios, ratio)
		}
	}
	r.set("cost_ratio", geomean(ratios))

	if p.durable {
		if err := verifyRecovery(r, g.cfg, snaps); err != nil {
			return err
		}
		if r.tr != nil {
			size, err := walRecordBytes(p, newPool(r.seed, 0, p.threads, p.batch))
			if err != nil {
				return fmt.Errorf("measuring WAL records: %w", err)
			}
			if err := walPass(r, size, seconds(walShare)); err != nil {
				return err
			}
		}
	}
	return nil
}

// directPass calls Server.Ingest and Server.Query directly at the given
// rate, one goroutine per tenant on the same 1 ms schedule as the
// open-loop generator, and returns the call latencies in seconds: the
// server's share of a wire round trip.
func directPass(g *rig, p serveProfile, rate float64, dur time.Duration, tr *tracer) (ingest, query []float64, events uint64, calls, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	perTick := rate / float64(len(g.conns)) / float64(p.batch) * tick.Seconds()
	t0 := time.Now()
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *clientConn) {
			defer wg.Done()
			var in, q []float64
			var ev uint64
			var n, bad int
			released := 0
			// Like the open loop, the pass stops at its end even when a
			// slow server left it behind schedule.
			for i := 0; i < int(dur/tick) && time.Since(t0) < dur; i++ {
				if d := time.Until(t0.Add(time.Duration(i) * tick)); d > 0 {
					time.Sleep(d)
				}
				for k := int(float64(i+1)*perTick) - released; k > 0; k-- {
					_, batch := c.pool.take()
					start := time.Now()
					err := g.srv.Ingest(c.tenant, batch)
					end := time.Now()
					in = append(in, end.Sub(start).Seconds())
					if n++; n%spanSample == 0 {
						tr.record("serve.ingest", 0, c.tenant, start, end)
					}
					if err != nil {
						bad++
					} else {
						ev += uint64(len(batch))
					}
					if released++; p.queryEvery > 0 && released%p.queryEvery == 0 {
						start := time.Now()
						res, err := g.srv.Query(context.Background(), c.tenant)
						end := time.Now()
						q = append(q, end.Sub(start).Seconds())
						if n++; n%spanSample == 0 {
							tr.record("serve.query", 0, c.tenant, start, end)
						}
						if err != nil || res.Degraded {
							bad++
						}
					}
				}
			}
			mu.Lock()
			ingest, query = append(ingest, in...), append(query, q...)
			events += ev
			calls += n
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ingest, query, events, calls, failed
}

// verifyRecovery reopens the drained durable server from its directory and
// checks that every tenant's recovered matrix equals the one the drained
// server held.
func verifyRecovery(r *run, cfg serve.Config, snaps map[string]*serve.TenantSnapshot) error {
	sp := r.tr.begin("serve.recover", 0, "recover")
	start := time.Now()
	srv, err := serve.Open(cfg)
	took := time.Since(start)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.set("wal.recover_s", took.Seconds())
	for id, want := range snaps {
		got, err := srv.Snapshot(id)
		switch {
		case err != nil:
			r.broken("tenant %s did not recover: %v", id, err)
		case !got.Matrix.Equal(want.Matrix):
			r.broken("tenant %s: recovered matrix differs from the drained one", id)
		}
	}
	r.logf("recovery: %d tenants reopened in %.3f s", len(snaps), took.Seconds())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// walRecordBytes measures how many bytes a durable server writes per
// acknowledged batch of the run's traffic: it ingests batches from the pool
// into a fresh server that takes no snapshot, and divides the growth of its
// directory by the batch count. The first batch, which also creates the
// tenant's files, is left out.
func walRecordBytes(p serveProfile, pl *pool) (int, error) {
	const batches = 64
	dir, err := os.MkdirTemp(outDir, "walsize-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.Open(serve.Config{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: math.MaxInt32})
	if err != nil {
		return 0, err
	}
	defer srv.Drain(context.Background())
	if err := srv.CreateTenant("probe", p.threads); err != nil {
		return 0, err
	}
	var before int64
	for i := 0; i <= batches; i++ {
		if i == 1 {
			if before, err = dirBytes(dir); err != nil {
				return 0, err
			}
		}
		_, ev := pl.take()
		if err := srv.Ingest("probe", ev); err != nil {
			return 0, err
		}
	}
	after, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	if after <= before {
		return 0, fmt.Errorf("directory did not grow over %d acknowledged batches", batches)
	}
	return int((after - before) / batches), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// walPass times the write-ahead log on its own: records of the serving
// run's size appended with AppendBuffered and each made durable with Sync,
// as group commit does for one tenant per round.
func walPass(r *run, recordBytes int, dur time.Duration) error {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(filepath.Join(dir, "log"), wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, recordBytes)
	var appends, syncs []float64
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		t0 := time.Now()
		if _, err := l.AppendBuffered(payload); err != nil {
			l.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return fmt.Errorf("wal sync: %w", err)
		}
		t2 := time.Now()
		appends = append(appends, t1.Sub(t0).Seconds())
		syncs = append(syncs, t2.Sub(t1).Seconds())
		if len(syncs)%spanSample == 0 {
			r.tr.record("wal.append", 0, "wal", t0, t1)
			r.tr.record("wal.sync", 0, "wal", t1, t2)
		}
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	a, s := sortedCopy(appends), sortedCopy(syncs)
	r.set("wal.append_us_p50", percentile(a, 50)*1e6)
	r.set("wal.sync_us_p50", percentile(s, 50)*1e6)
	r.set("wal.sync_us_p99", percentile(s, 99)*1e6)
	r.logf("wal: %d records of %d bytes (the server's on-disk bytes per batch), each appended and synced", len(syncs), recordBytes)
	return nil
}
