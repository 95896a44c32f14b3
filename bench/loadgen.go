package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlbmap/internal/runner"
	"tlbmap/internal/serve"
	"tlbmap/internal/vm"
)

// tick is the open-loop generator's period: every tick it sends every
// request that has come due.
const tick = time.Millisecond

// answerGrace bounds how long a phase waits for answers after it ends
// before counting the rest as unanswered. An open-loop phase keeps at most
// one second of its offered requests in flight, so they drain within the
// grace unless the server runs below about 3% of the offered rate.
const answerGrace = 30 * time.Second

var (
	okPrefix  = []byte("OK")
	queryLine = []byte("Q\n")
	// refusedPrefix starts the answer to a batch the server refused under
	// overload backpressure: a failed request, not a protocol error.
	refusedPrefix = []byte("ERR " + serve.ErrOverloaded.Error())
)

// pool is one connection's pre-generated traffic, cycled in order: batches
// as wire lines for the protocol and as events for direct server calls.
// The stream is stationary, so cycling a pool of poolBatches batches is
// statistically the same as fresh batches and keeps memory bounded.
type pool struct {
	lines  [][]byte
	events [][]serve.Event
	next   int
}

const poolBatches = 2048

// newPool generates connection conn's batches from the run seed. The
// samples follow the traffic mapperd's own load generator
// (internal/serve/loadgen) ships: a uniformly drawn thread t touches a page
// of the 96-page region starting at page 64t, so neighbouring threads share
// 32 pages.
func newPool(seed int64, conn, threads, batch int) *pool {
	s := uint64(runner.SeedN(seed, conn, "bench-pool"))
	rng := rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15))
	p := &pool{lines: make([][]byte, poolBatches), events: make([][]serve.Event, poolBatches)}
	for i := range p.lines {
		ev := make([]serve.Event, batch)
		line := []byte("E")
		for k := range ev {
			t := rng.IntN(threads)
			page := uint64(t)*64 + uint64(rng.IntN(96))
			ev[k] = serve.Event{Thread: int32(t), Page: vm.Page(page)}
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(t), 10)
			line = append(line, ':')
			line = strconv.AppendUint(line, page, 10)
		}
		p.lines[i], p.events[i] = append(line, '\n'), ev
	}
	return p
}

// take returns the next batch.
func (p *pool) take() ([]byte, []serve.Event) {
	i := p.next
	p.next = (p.next + 1) % len(p.lines)
	return p.lines[i], p.events[i]
}

// clientConn is one benchmark connection bound to its own tenant.
type clientConn struct {
	conn    net.Conn
	rd      *bufio.Reader
	w       *bufio.Writer
	tenant  string
	threads int
	pool    *pool
}

// dialTenant connects over conn and binds it to tenant with HELLO.
func dialTenant(conn net.Conn, tenant string, threads int, p *pool) (*clientConn, error) {
	c := &clientConn{
		conn: conn, rd: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10),
		tenant: tenant, threads: threads, pool: p,
	}
	resp, err := c.roundTrip(fmt.Sprintf("HELLO %s %d\n", tenant, threads))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("HELLO %s: %w", tenant, err)
	}
	if !bytes.HasPrefix(resp, okPrefix) {
		conn.Close()
		return nil, fmt.Errorf("HELLO %s: %s", tenant, resp)
	}
	return c, nil
}

func (c *clientConn) roundTrip(line string) ([]byte, error) {
	c.conn.SetDeadline(time.Now().Add(answerGrace))
	defer c.conn.SetDeadline(time.Time{})
	if _, err := c.w.WriteString(line); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.rd.ReadSlice('\n')
}

// close ends the session with BYE and closes the connection.
func (c *clientConn) close() error {
	resp, err := c.roundTrip("BYE\n")
	c.conn.Close()
	if err != nil {
		return fmt.Errorf("BYE %s: %w", c.tenant, err)
	}
	if !bytes.HasPrefix(resp, okPrefix) {
		return fmt.Errorf("BYE %s: %s", c.tenant, resp)
	}
	return nil
}

// phaseResult is what one traffic phase measured over all connections.
// Times are seconds since the phase began.
type phaseResult struct {
	acks, queries []timed // answer latency of each batch / query, by due time
	events        uint64  // events acknowledged
	sent          int     // requests written
	errs          int     // ERR answers other than overload refusals
	refused       int     // batches refused with serve.ErrOverloaded
	unanswered    int     // requests without an answer (hang-up or timeout)
	unsent        int     // open loop: requests still unsent when the phase ended
	degraded      int     // queries answered with a stale placement
	badPlacements int     // query answers that are not a permutation of the threads
	lastAnswer    float64
	late          []float64 // open loop: how late each sending tick ran
	backlogMax    int       // open loop: most requests in flight at a tick
}

func (p *phaseResult) merge(o phaseResult) {
	p.acks = append(p.acks, o.acks...)
	p.queries = append(p.queries, o.queries...)
	p.events += o.events
	p.sent += o.sent
	p.errs += o.errs
	p.refused += o.refused
	p.unanswered += o.unanswered
	p.unsent += o.unsent
	p.degraded += o.degraded
	p.badPlacements += o.badPlacements
	p.lastAnswer = max(p.lastAnswer, o.lastAnswer)
	p.late = append(p.late, o.late...)
	p.backlogMax = max(p.backlogMax, o.backlogMax)
}

func (p phaseResult) failed() int {
	return p.errs + p.refused + p.unanswered + p.unsent + p.degraded
}

// counts returns the result without its per-request samples.
func (p phaseResult) counts() phaseResult {
	p.acks, p.queries, p.late = nil, nil, nil
	return p
}

// pending is a request written and not yet answered. Times are seconds
// since the phase began.
type pending struct {
	due     float64 // when the schedule made it due
	start   float64 // when its latency clock starts (see openLoop)
	written float64 // when the flush carrying it returned
	events  int     // 0 for a query
}

// answer checks one answer against its request and records it.
func (res *phaseResult) answer(line []byte, p pending, at float64, threads int) {
	res.lastAnswer = at
	if !bytes.HasPrefix(line, okPrefix) {
		if bytes.HasPrefix(line, refusedPrefix) {
			res.refused++
		} else {
			res.errs++
		}
		return
	}
	if p.events > 0 {
		res.acks = append(res.acks, timed{p.due, at - p.start})
		res.events += uint64(p.events)
		return
	}
	res.queries = append(res.queries, timed{p.due, at - p.start})
	ok, degraded := checkQueryAnswer(line, threads)
	if !ok {
		res.badPlacements++
	}
	if degraded {
		res.degraded++
	}
}

// checkQueryAnswer parses "OK <p0,p1,...> conf=... degraded=<bool> ..."
// and reports whether the placement is a permutation of the tenant's
// threads and whether the answer is degraded.
func checkQueryAnswer(line []byte, threads int) (ok, degraded bool) {
	fields := bytes.Fields(line)
	if len(fields) < 2 {
		return false, false
	}
	parts := bytes.Split(fields[1], []byte{','})
	place := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(string(part))
		if err != nil {
			return false, false
		}
		place = append(place, v)
	}
	return isPermutation(place, threads), bytes.Contains(line, []byte("degraded=true"))
}

// openLoop offers rate events per second, split evenly over the
// connections, for dur. Every tick each connection writes every request
// that has come due — batches at the rate, plus a query after every
// queryEvery batches — and flushes. Each answer is timed from the tick it
// was due at, not from when it was written, so a server stall that blocks
// the writer or fills the in-flight window charges its wait to every
// request queued behind it. The one exception is the sleep before an
// on-schedule tick: the host's timer wakes it up to about a millisecond
// late, and that delay is the generator's, so such a tick's requests are
// timed from the wake-up. How late each tick's flush completed is
// reported as generator lateness. A generator more than a quarter of the
// phase behind schedule stops sending; requests still unsent then count as
// failed, since they missed any latency limit. One request in sampleEvery
// is recorded as spans.
func openLoop(conns []*clientConn, rate float64, dur time.Duration, batch, queryEvery int, tr *tracer, sampleEvery int) phaseResult {
	var (
		mu  sync.Mutex
		out phaseResult
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	perTick := rate / float64(len(conns)) / float64(batch) * tick.Seconds()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *clientConn) {
			defer wg.Done()
			res := c.openLoop(t0, perTick, dur, queryEvery, tr, sampleEvery, fmt.Sprintf("conn%d", ci))
			mu.Lock()
			out.merge(res)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	return out
}

// openLoop runs one connection's share of an open-loop phase: a sender
// paced by the tick schedule and a receiver matching answers to requests in
// order (the protocol answers strictly in order).
func (c *clientConn) openLoop(t0 time.Time, perTick float64, dur time.Duration, queryEvery int, tr *tracer, sampleEvery int, name string) phaseResult {
	since := func() float64 { return time.Since(t0).Seconds() }
	// requests counts the batches and queries among the first batches.
	requests := func(batches int) int {
		if queryEvery > 0 {
			return batches + batches/queryEvery
		}
		return batches
	}
	// The in-flight window holds one second of offered requests: when it is
	// full the sender blocks, and the stall shows up as generator lateness.
	// Its size bounds how long the answers take to drain after the phase.
	pend := make(chan pending, max(64, requests(int(perTick*float64(time.Second/tick)))))
	var sent, answered atomic.Int64
	var send phaseResult
	c.conn.SetReadDeadline(t0.Add(dur + answerGrace))
	defer c.conn.SetReadDeadline(time.Time{})

	done := make(chan phaseResult)
	go func() {
		var res phaseResult
		n := 0
		for p := range pend {
			line, err := c.rd.ReadSlice('\n')
			at := since()
			if err != nil {
				res.unanswered++
				for range pend {
					res.unanswered++
				}
				break
			}
			answered.Add(1)
			res.answer(line, p, at, c.threads)
			if n++; tr != nil && n%sampleEvery == 0 {
				req := fmt.Sprintf("%s/%d", name, n)
				at0 := func(s float64) time.Time { return t0.Add(time.Duration(s * 1e9)) }
				root := tr.record("loadgen.request", 0, req, at0(p.start), at0(at))
				tr.record("loadgen.send", root, req, at0(p.start), at0(p.written))
				tr.record("protocol.roundtrip", root, req, at0(p.written), at0(at))
			}
		}
		done <- res
	}()

	ticks := int(dur / tick)
	released := 0
	var batch []pending
	for i := 0; i < ticks; i++ {
		n := int(float64(i+1)*perTick) - released
		if n <= 0 {
			continue
		}
		if time.Since(t0) >= dur+dur/4 {
			send.unsent = requests(int(float64(ticks)*perTick)) - requests(released)
			break
		}
		due := t0.Add(time.Duration(i) * tick)
		dueS := due.Sub(t0).Seconds()
		startS := dueS
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			startS = since()
		}
		batch = batch[:0]
		for k := 0; k < n; k++ {
			line, ev := c.pool.take()
			c.w.Write(line)
			batch = append(batch, pending{due: dueS, start: startS, events: len(ev)})
			if released++; queryEvery > 0 && released%queryEvery == 0 {
				c.w.Write(queryLine)
				batch = append(batch, pending{due: dueS, start: startS})
			}
		}
		sent.Add(int64(len(batch)))
		if err := c.w.Flush(); err != nil {
			send.unanswered += len(batch)
			break
		}
		written := since()
		send.late = append(send.late, written-dueS)
		send.backlogMax = max(send.backlogMax, int(sent.Load()-answered.Load()))
		for _, p := range batch {
			p.written = written
			pend <- p
		}
	}
	close(pend)
	res := <-done
	res.sent, res.late, res.backlogMax = int(sent.Load()), send.late, send.backlogMax
	res.unanswered += send.unanswered
	res.unsent = send.unsent
	return res
}

// closedLoop keeps depth requests in flight on every connection for dur:
// write a window of requests, flush, read its answers, repeat. It returns
// the phase result and the events acknowledged per second in every whole
// one-second window.
func closedLoop(conns []*clientConn, dur time.Duration, depth, queryEvery int, tr *tracer, sampleEvery int) (phaseResult, []float64) {
	var (
		mu     sync.Mutex
		out    phaseResult
		counts = map[int]uint64{}
		wg     sync.WaitGroup
	)
	t0 := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *clientConn) {
			defer wg.Done()
			res, perSecond := c.closedLoop(t0, dur, depth, queryEvery, tr, sampleEvery, fmt.Sprintf("conn%d", ci))
			mu.Lock()
			out.merge(res)
			for w, n := range perSecond {
				counts[w] += n
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	var rates []float64
	for w := 0; w < int(dur/time.Second); w++ {
		rates = append(rates, float64(counts[w]))
	}
	return out, rates
}

func (c *clientConn) closedLoop(t0 time.Time, dur time.Duration, depth, queryEvery int, tr *tracer, sampleEvery int, name string) (phaseResult, map[int]uint64) {
	var res phaseResult
	perSecond := map[int]uint64{}
	c.conn.SetReadDeadline(t0.Add(dur + answerGrace))
	defer c.conn.SetReadDeadline(time.Time{})
	window := make([]pending, 0, depth+1)
	released := 0
	for time.Since(t0) < dur {
		window = window[:0]
		for len(window) < depth {
			line, ev := c.pool.take()
			c.w.Write(line)
			window = append(window, pending{events: len(ev)})
			if released++; queryEvery > 0 && released%queryEvery == 0 {
				c.w.Write(queryLine)
				window = append(window, pending{})
			}
		}
		start := time.Since(t0).Seconds()
		if err := c.w.Flush(); err != nil {
			res.unanswered += len(window)
			return res, perSecond
		}
		res.sent += len(window)
		for i, p := range window {
			line, err := c.rd.ReadSlice('\n')
			at := time.Since(t0).Seconds()
			if err != nil {
				res.unanswered += len(window) - i
				return res, perSecond
			}
			p.due, p.start = start, start
			before := res.events
			res.answer(line, p, at, c.threads)
			perSecond[int(at)] += res.events - before
			if n := res.sent - len(window) + i + 1; tr != nil && n%sampleEvery == 0 {
				tr.record("loadgen.request", 0, fmt.Sprintf("%s/sat/%d", name, n),
					t0.Add(time.Duration(start*1e9)), t0.Add(time.Duration(at*1e9)))
			}
		}
		// Saturation reports throughput only; dropping the per-request
		// samples keeps the client's memory flat.
		res.acks, res.queries = res.acks[:0], res.queries[:0]
	}
	return res, perSecond
}
