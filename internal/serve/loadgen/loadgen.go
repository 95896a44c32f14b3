// Package loadgen is the synthetic client fleet for mapperd: it drives
// many concurrent protocol connections against a serve.Server (over real
// TCP or in-memory pipes), shipping deterministic neighbor-pattern TLB
// samples and interleaved placement queries, and reports sustained
// events/sec plus query-latency percentiles — the numbers BENCH_serve.json
// commits and scripts/bench.sh check gates.
package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	randv2 "math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlbmap/internal/runner"
	"tlbmap/internal/stats"
)

// Wire fragments the hot loop compares against without allocating.
var (
	okPrefix    = []byte("OK")
	queryLine   = []byte("Q\n")
	byeLine     = []byte("BYE\n")
	helloPrefix = "OK seq="
)

// Options configures one fleet run. Zero values select the defaults noted.
type Options struct {
	// Dial opens one connection to the daemon (required). Real fleets
	// dial TCP; the soak tests hand out net.Pipe ends.
	Dial func() (net.Conn, error)
	// Conns is the fleet size (default 64).
	Conns int
	// Tenants is how many tenants the fleet spreads over (default 8;
	// connection i belongs to tenant i mod Tenants).
	Tenants int
	// Threads is the per-tenant thread count (default 8, a power of two).
	Threads int
	// EventsPerConn is how many samples each connection ships
	// (default 1000).
	EventsPerConn int
	// Batch is the events per E line (default 50).
	Batch int
	// QueryEvery issues a placement query every that many batches
	// (0 or less disables queries).
	QueryEvery int
	// Seed derives every connection's deterministic sample stream.
	Seed int64
	// Reconnect makes every connection sequenced — HELLO carries a source
	// name, E lines carry batch numbers — and injects one deliberate
	// mid-conversation disconnect at a seeded random batch (sometimes
	// after the batch was written but before its ack was read: the
	// lost-ack case). The connection re-dials with backoff, re-HELLOs,
	// reads the server's acknowledged sequence and resumes, so the run
	// finishes with every event applied exactly once. Sequenced sessions
	// run strict request/response instead of pipelining, because resuming
	// a half-acknowledged window would blur what the drop injection is
	// there to test.
	Reconnect bool
}

const (
	// pipeline is how many requests each unsequenced connection keeps in
	// flight before reading their responses. The protocol is strictly
	// ordered, so responses are matched FIFO; a pipelined fleet amortizes
	// one write+read syscall pair over the whole window on both sides of
	// the socket.
	pipeline = 8
	// dialRetries is how many additional connect attempts a sequenced
	// (Reconnect) connection makes after a failed dial; other connections
	// make none. The waits grow exponentially and are jittered from the
	// connection's seeded rng, so a reconnecting herd spreads out
	// deterministically.
	dialRetries = 3
	// backoff is the base delay before the first retry; attempt k waits
	// backoff·2^k scaled by a jitter factor in [0.5, 1.5).
	backoff = 5 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 64
	}
	if o.Tenants <= 0 {
		o.Tenants = 8
	}
	if o.Threads <= 0 {
		o.Threads = 8
	}
	if o.EventsPerConn <= 0 {
		o.EventsPerConn = 1000
	}
	if o.Batch <= 0 {
		o.Batch = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Report summarizes one fleet run.
type Report struct {
	Conns, Tenants, Threads int
	// Events, Batches and Queries count acknowledged requests (Events
	// the samples in the acknowledged batches); Errors counts ERR
	// responses (overload responses land here), HangUps counts
	// connections the server closed early or that failed IO.
	Events, Batches, Queries, Errors, HangUps uint64
	Elapsed                                   time.Duration
	EventsPerSec, QueriesPerSec               float64
	// QueryP50/QueryP99 summarize round-trip query latency.
	QueryP50, QueryP99 time.Duration
}

// String renders the report the way mapperd prints it.
func (r Report) String() string {
	return fmt.Sprintf(
		"conns=%d tenants=%d threads=%d events=%d queries=%d errors=%d hangups=%d\n"+
			"  sustained %.0f events/sec, %.0f queries/sec over %v\n"+
			"  query latency p50=%v p99=%v",
		r.Conns, r.Tenants, r.Threads, r.Events, r.Queries, r.Errors, r.HangUps,
		r.EventsPerSec, r.QueriesPerSec, r.Elapsed.Round(time.Millisecond),
		r.QueryP50.Round(time.Microsecond), r.QueryP99.Round(time.Microsecond))
}

// Run drives the fleet to completion: every connection HELLOs its tenant,
// ships EventsPerConn samples in batches with interleaved queries, and
// BYEs. Sample streams are deterministic per (Seed, connection): thread
// picked uniformly, page drawn from the thread's 96-page region, which
// overlaps its successor's region by 32 pages — adjacent threads share
// pages, so the detected pattern is the neighbor-heavy shape the mappers
// reward and remaps actually fire under load.
func Run(o Options) (Report, error) {
	o = o.withDefaults()
	if o.Dial == nil {
		return Report{}, fmt.Errorf("loadgen: Options.Dial is required")
	}
	var (
		events, batches, queries, errs, hangups atomic.Uint64
		mu                                      sync.Mutex
		latencies                               []time.Duration
		wg                                      sync.WaitGroup
	)
	// Synthesize every connection's conversation before starting the
	// clock: the reported window measures shipping and serving, not
	// request generation.
	plans := make([]*plan, o.Conns)
	for i := range plans {
		plans[i] = prepare(o, i)
	}
	start := time.Now()
	for i := 0; i < o.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat, ev, b, q, er, err := drive(o, plans[i])
			events.Add(ev)
			batches.Add(b)
			queries.Add(q)
			errs.Add(er)
			if err != nil {
				hangups.Add(1)
			}
			mu.Lock()
			latencies = append(latencies, lat...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := Report{
		Conns: o.Conns, Tenants: o.Tenants, Threads: o.Threads,
		Events: events.Load(), Batches: batches.Load(), Queries: queries.Load(),
		Errors: errs.Load(), HangUps: hangups.Load(),
		Elapsed: elapsed,
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		r.EventsPerSec = float64(r.Events) / secs
		r.QueriesPerSec = float64(r.Queries) / secs
	}
	var sample stats.Sample
	for _, d := range latencies {
		sample.Add(float64(d))
	}
	r.QueryP50 = time.Duration(sample.Percentile(50))
	r.QueryP99 = time.Duration(sample.Percentile(99))
	return r, nil
}

// dialBackoff dials with up to dialRetries additional attempts on a
// sequenced connection (none otherwise), sleeping an exponentially
// growing, rng-jittered delay between them. The jitter comes from the
// connection's own seeded stream, so a herd of clients hitting a
// restarting daemon spreads out — and the same seed reproduces the spread.
func dialBackoff(o Options, rng *randv2.Rand) (net.Conn, error) {
	budget := 0
	if o.Reconnect {
		budget = dialRetries
	}
	delay := backoff
	for attempt := 0; ; attempt++ {
		conn, err := o.Dial()
		if err == nil {
			return conn, nil
		}
		if attempt >= budget {
			return nil, fmt.Errorf("loadgen: dial (attempt %d): %w", attempt+1, err)
		}
		time.Sleep(time.Duration(float64(delay) * (0.5 + rng.Float64())))
		delay *= 2
	}
}

// plan is one connection's pre-synthesized conversation: identity, seeded
// rng, and every request line as ready-to-ship wire bytes.
type plan struct {
	tenant, source string
	hello          []byte
	rng            *randv2.Rand
	lines          [][]byte
	sizes          []int
	dropAt         int
	dropAfterWrite bool
}

// prepare builds connection i's plan. Every batch line is generated up
// front — full wire bytes including the "E" prefix, the batch number on
// sequenced sessions, and the trailing newline — before any retry/drop
// draws, so the sample stream a connection ships is a function of
// (Seed, i) alone and a resumed batch is byte-identical to its first
// transmission. Shipping a batch is then a single buffer write, no
// per-event formatting.
func prepare(o Options, i int) *plan {
	p := &plan{tenant: fmt.Sprintf("tenant-%03d", i%o.Tenants), dropAt: -1}
	if o.Reconnect {
		p.source = fmt.Sprintf("conn-%04d", i)
	}
	seed := uint64(runner.SeedN(o.Seed, i, "loadgen"))
	p.rng = randv2.New(randv2.NewPCG(seed, seed^0x9e3779b97f4a7c15))

	p.hello = fmt.Appendf(nil, "HELLO %s %d", p.tenant, o.Threads)
	if p.source != "" {
		p.hello = append(append(p.hello, ' '), p.source...)
	}
	p.hello = append(p.hello, '\n')

	nbatches := (o.EventsPerConn + o.Batch - 1) / o.Batch
	p.lines = make([][]byte, nbatches)
	p.sizes = make([]int, nbatches)
	sent := 0
	for bi := range p.lines {
		n := o.Batch
		if rest := o.EventsPerConn - sent; n > rest {
			n = rest
		}
		line := append([]byte(nil), 'E')
		if p.source != "" {
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(bi+1), 10)
		}
		for k := 0; k < n; k++ {
			// Neighbor pattern: thread t's 96-page region starts at
			// t*64, so it shares 32 pages with thread t+1's region.
			thread := p.rng.IntN(o.Threads)
			page := uint64(thread)*64 + uint64(p.rng.IntN(96))
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(thread), 10)
			line = append(line, ':')
			line = strconv.AppendUint(line, page, 10)
		}
		p.lines[bi] = append(line, '\n')
		p.sizes[bi] = n
		sent += n
	}
	// The injected failure point: drop the connection just as batch dropAt
	// would be shipped. Half the time the batch is written first and the
	// ack abandoned (the lost-ack case — the server may have applied it),
	// so resume exercises both the HELLO seq= skip and a clean resend.
	if o.Reconnect && nbatches > 1 {
		p.dropAt = p.rng.IntN(nbatches)
		p.dropAfterWrite = p.rng.IntN(2) == 0
	}
	return p
}

// drive runs one connection's whole conversation and returns its query
// latencies and counts. A non-nil error means the conversation ended
// early (server hangup, IO failure). With Reconnect set the conversation
// is sequenced and survives — in fact deliberately injects — a dropped
// connection mid-stream.
func drive(o Options, p *plan) (lat []time.Duration, events, batches, queries, errs uint64, err error) {
	source, rng := p.source, p.rng
	lines, sizes := p.lines, p.sizes
	nbatches := len(lines)
	dropAt, dropAfterWrite := p.dropAt, p.dropAfterWrite

	var (
		conn net.Conn
		rd   *bufio.Reader
		w    *bufio.Writer
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// roundTrip ships one prebuilt request line (newline included) and
	// returns the response without its newline. The returned slice aliases
	// the read buffer: it is only valid until the next roundTrip.
	roundTrip := func(line []byte) ([]byte, error) {
		if _, err := w.Write(line); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		resp, err := rd.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		return bytes.TrimSuffix(resp, []byte("\n")), nil
	}
	// connect (re)dials, re-HELLOs, and returns the server's acknowledged
	// batch number for this source (always 0 on unsourced sessions).
	connect := func() (uint64, error) {
		c, err := dialBackoff(o, rng)
		if err != nil {
			return 0, err
		}
		if conn != nil {
			conn.Close()
		}
		// The largest response is a query's placement list (~a dozen bytes
		// per thread); size the read buffer for it instead of paying a
		// fixed 64KB per connection.
		rsz := 4096
		if n := 256 + 12*o.Threads; n > rsz {
			rsz = n
		}
		conn, rd, w = c, bufio.NewReaderSize(c, rsz), bufio.NewWriter(c)
		resp, err := roundTrip(p.hello)
		if err != nil {
			return 0, err
		}
		if source != "" {
			acked, ok := strings.CutPrefix(string(resp), helloPrefix)
			if !ok {
				return 0, fmt.Errorf("loadgen: HELLO: %s", resp)
			}
			return strconv.ParseUint(acked, 10, 64)
		}
		if !bytes.HasPrefix(resp, okPrefix) {
			return 0, fmt.Errorf("loadgen: HELLO: %s", resp)
		}
		return 0, nil
	}

	acked, err := connect()
	if err != nil {
		return lat, events, batches, queries, errs, err
	}
	// skipAcked credits batches the server already accepted (a lost ack
	// followed by a reconnect) and advances past them.
	bi := 0
	skipAcked := func(acked uint64) {
		for uint64(bi) < acked && bi < nbatches {
			events += uint64(sizes[bi])
			batches++
			bi++
		}
	}
	skipAcked(acked)

	// Pipelined mode (unsourced sessions): write up to pipeline request
	// lines — E batches plus their cadenced queries — flush once, then
	// read the window's responses in order (the protocol is strictly
	// ordered, so matching is FIFO). One write+read syscall pair on each
	// side of the socket covers the whole window. Query latency is
	// measured from the window flush — the moment the request actually
	// hits the socket — to its response arriving.
	if !o.Reconnect {
		type pending struct {
			size  int // events credited if acked (0 for a query)
			query bool
		}
		window := make([]pending, 0, pipeline+1)
		drain := func() error {
			if len(window) == 0 {
				return nil
			}
			flushedAt := time.Now()
			if err := w.Flush(); err != nil {
				return err
			}
			for _, p := range window {
				resp, err := rd.ReadSlice('\n')
				if err != nil {
					return err
				}
				resp = bytes.TrimSuffix(resp, []byte("\n"))
				switch {
				case !bytes.HasPrefix(resp, okPrefix):
					errs++
				case p.query:
					lat = append(lat, time.Since(flushedAt))
					queries++
				default:
					events += uint64(p.size)
					batches++
				}
			}
			window = window[:0]
			return nil
		}
		for bi < nbatches {
			if _, werr := w.Write(lines[bi]); werr != nil {
				return lat, events, batches, queries, errs, werr
			}
			window = append(window, pending{size: sizes[bi]})
			bi++
			if o.QueryEvery > 0 && bi%o.QueryEvery == 0 {
				if _, werr := w.Write(queryLine); werr != nil {
					return lat, events, batches, queries, errs, werr
				}
				window = append(window, pending{query: true})
			}
			if len(window) >= pipeline {
				if derr := drain(); derr != nil {
					return lat, events, batches, queries, errs, derr
				}
			}
		}
		if derr := drain(); derr != nil {
			return lat, events, batches, queries, errs, derr
		}
		if _, err := roundTrip(byeLine); err != nil {
			return lat, events, batches, queries, errs, err
		}
		return lat, events, batches, queries, errs, nil
	}

	// Sequenced mode: one request in flight at a time.
	retries := 0
	for bi < nbatches {
		line := lines[bi]
		if bi == dropAt {
			dropAt = -1
			if dropAfterWrite {
				w.Write(line)
				w.Flush()
			}
			acked, err := connect()
			if err != nil {
				return lat, events, batches, queries, errs, err
			}
			skipAcked(acked)
			continue
		}
		resp, rerr := roundTrip(line)
		if rerr != nil {
			// The server went away underneath us: reconnect and resume
			// from whatever it acknowledged.
			acked, err := connect()
			if err != nil {
				return lat, events, batches, queries, errs, err
			}
			skipAcked(acked)
			continue
		}
		if bytes.HasPrefix(resp, okPrefix) {
			events += uint64(sizes[bi])
			batches++
			retries = 0
		} else {
			// A rejected sequenced batch (overload) must be resent —
			// skipping it would leave a permanent sequence gap.
			errs++
			retries++
			if retries > 64 {
				return lat, events, batches, queries, errs,
					fmt.Errorf("loadgen: batch %d rejected %d times: %s", bi+1, retries, resp)
			}
			time.Sleep(time.Duration(float64(backoff) * (0.5 + rng.Float64())))
			continue
		}
		bi++
		if o.QueryEvery > 0 && bi%o.QueryEvery == 0 {
			qStart := time.Now()
			resp, err := roundTrip(queryLine)
			if err != nil {
				return lat, events, batches, queries, errs, err
			}
			if bytes.HasPrefix(resp, okPrefix) {
				lat = append(lat, time.Since(qStart))
				queries++
			} else {
				errs++
			}
		}
	}
	if _, err := roundTrip(byeLine); err != nil {
		return lat, events, batches, queries, errs, err
	}
	return lat, events, batches, queries, errs, nil
}
