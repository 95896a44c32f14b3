package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"tlbmap/internal/vm"
)

// Wire protocol: newline-delimited text, one request line -> one response
// line, pipelining allowed. Responses start with "OK" or "ERR".
//
//	HELLO <tenant> <threads> [source]
//	                           bind the connection to a tenant (created if
//	                           absent; idempotent for an equal thread count).
//	                           With a source name the session is sequenced:
//	                           the response is "OK seq=<n>", the source's
//	                           last accepted batch number, so a
//	                           reconnecting client resumes from n+1.
//	E <thread>:<page> ...      ingest a batch of TLB samples (page is
//	                           decimal or 0x-hex)
//	E <seq> <thread>:<page> ...
//	                           sequenced form (required on a sourced
//	                           session): seq is the client's batch number,
//	                           starting at 1. A replayed batch answers
//	                           "OK dup" without re-applying; a skipped
//	                           number is an ERR and the client must
//	                           re-HELLO to resync.
//	Q                          placement query -> "OK <p0,p1,...> conf=<c>
//	                           remap=<bool> degraded=<bool> reason=<...>"
//	SNAP                       tenant snapshot -> "OK events=... applied=...
//	                           dropped=... total=... nnz=... conf=..."
//	BYE                        close the connection ("OK bye")
//
// Responses come back in request order. On a durable server under
// wal.SyncAlways an OK to an E line ("OK dup" included) means the batch
// is durable: the acks of a pipelined burst are released together after
// one fsync that covers them all, and if that fsync fails every request
// of the burst is answered with the quarantine ERR instead.
//
// Limits: lines up to maxLineBytes (sized from MaxBatch so every legal
// request fits), at most MaxBatch events per E line.
const (
	// MaxBatch bounds the events one E line may carry; larger batches are
	// rejected so one client cannot stuff an unbounded allocation into a
	// single request.
	MaxBatch = 1024
	// maxLineBytes bounds one request line. The widest legal request is a
	// sequenced E line: "E ", a 20-digit batch seq, and MaxBatch events of
	// at most " <thread>:<page>" — 33 bytes each for a 10-digit thread and
	// 20-digit decimal page. Longer lines cannot be well-formed, so they
	// are consumed through their newline and refused with a clean ERR
	// instead of dropping the connection.
	maxLineBytes = 32 + 33*MaxBatch
)

// readerPool and writerPool recycle per-connection buffered IO between
// accepts, so a churning fleet stops paying a line-buffer and write-buffer
// allocation per connection.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxLineBytes) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 4096) }}
)

// Serve accepts connections until the listener closes (which the daemon
// does on SIGTERM before draining). Each connection is served on its own
// goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(c)
	}
}

// ServeConn speaks the wire protocol on one connection until EOF, BYE, or
// a slow-consumer hangup. The reader goroutine writes each response
// directly into a pooled write buffer and flushes only when no further
// request is already buffered, so a pipelined burst is answered with one
// write, behind one covering fsync on a durable server (see release).
// Every flush runs under a 5 s write deadline (defaultWriteTimeout): a
// client that pipelines requests but never reads responses blocks the
// first full flush, trips the deadline, and is disconnected —
// per-connection memory stays bounded no matter how the peer behaves.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	rd := readerPool.Get().(*bufio.Reader)
	rd.Reset(conn)
	w := writerPool.Get().(*bufio.Writer)
	w.Reset(conn)
	sess := session{srv: s, conn: conn, rd: rd, w: w}
	defer func() {
		if sess.held > 0 {
			sess.release(nil)
		}
		rd.Reset(nil)
		w.Reset(nil)
		readerPool.Put(rd)
		writerPool.Put(w)
	}()

	resp := make([]byte, 0, 256)
	for {
		line, err := rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// No legal request is this long (see maxLineBytes): consume
			// through the newline and answer a clean ERR so the connection
			// keeps working.
			for err == bufio.ErrBufferFull {
				_, err = rd.ReadSlice('\n')
			}
			if err != nil {
				return
			}
			resp = append(resp[:0], "ERR line exceeds "...)
			resp = strconv.AppendInt(resp, maxLineBytes, 10)
			resp = append(resp, " bytes"...)
			if !sess.writeResp(resp) {
				return
			}
			continue
		}
		last := false
		if err != nil {
			if len(line) == 0 || err != io.EOF {
				return
			}
			// Final request without a trailing newline: process it like
			// bufio.Scanner would, then close.
			last = true
		}
		var quit bool
		resp, quit = sess.handle(trimEOL(line), resp[:0])
		if !sess.writeResp(resp) || quit || last {
			return
		}
	}
}

// writeResp adds one response line to the write buffer, where it stays
// while further requests are buffered and it fits; otherwise it goes out
// with every line held before it. It reports whether the connection is
// still usable.
func (sess *session) writeResp(resp []byte) bool {
	if sess.rd.Buffered() > 0 && sess.w.Available() > len(resp) {
		sess.held++
		sess.w.Write(resp)
		return sess.w.WriteByte('\n') == nil
	}
	return sess.release(resp)
}

// release flushes the held lines, then resp unless it is nil, once the
// acks among them are durable: one covering fsync for the whole burst. If
// that fsync fails no ack may escape, so the buffer is discarded and each
// request it answered, resp's included, gets the quarantine ERR instead.
// Every write that reaches the socket empties the buffer, so it only ever
// holds complete unsent lines and the discard cannot tear one.
func (sess *session) release(resp []byte) bool {
	n := sess.held
	if resp != nil {
		n++
	}
	t, seq := sess.durT, sess.durSeq
	sess.held, sess.durT, sess.durSeq = 0, nil, 0
	var err error
	if t != nil {
		err = t.waitDurable(seq)
	}
	sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.writeTimeout))
	if err != nil {
		sess.w.Reset(sess.conn)
		resp = appendErr(resp[:0], err)
		for ; n > 1; n-- {
			sess.w.Write(resp)
			sess.w.WriteByte('\n')
		}
	}
	if resp != nil {
		sess.w.Write(resp)
		sess.w.WriteByte('\n')
	}
	return sess.w.Flush() == nil
}

// hold marks the response being built as an ack that waits for WAL seq
// of t. Acks held for another tenant (the bound one was evicted and
// re-created) go out first.
func (sess *session) hold(t *tenant, seq uint64) {
	if sess.durT != t && sess.durT != nil {
		sess.release(nil)
	}
	sess.durT, sess.durSeq = t, max(sess.durSeq, seq)
}

// trimEOL strips the trailing "\n" or "\r\n" from one raw request line.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// session is the per-connection protocol state: buffered IO, the tenant
// and source the connection is bound to, and reusable parse scratch. held
// counts the unsent response lines in w; the acks among them wait for WAL
// seq durSeq of tenant durT (nil: none waits).
type session struct {
	srv    *Server
	conn   net.Conn
	rd     *bufio.Reader
	w      *bufio.Writer
	tenant string
	source string
	batch  []Event
	held   int
	durT   *tenant
	durSeq uint64
}

// handle executes one request line, appends the one-line response to resp,
// and reports whether the connection should close. The line aliases the
// read buffer and the returned slice aliases resp's backing array; both
// are consumed before the next read, so the steady-state ingest path
// allocates nothing (asserted by TestIngestSteadyStateZeroAllocs).
func (sess *session) handle(line, resp []byte) ([]byte, bool) {
	cmd, rest := nextField(line)
	switch string(cmd) { // compiled to comparisons; does not allocate
	case "E":
		return sess.handleEvents(rest, resp), false

	case "HELLO":
		return sess.handleHello(rest, resp), false

	case "Q":
		if sess.tenant == "" {
			return append(resp, "ERR HELLO first"...), false
		}
		res, err := sess.srv.Query(context.Background(), sess.tenant)
		if err != nil {
			return appendErr(resp, err), false
		}
		resp = append(resp, "OK "...)
		for i, c := range res.Placement {
			if i > 0 {
				resp = append(resp, ',')
			}
			resp = strconv.AppendInt(resp, int64(c), 10)
		}
		resp = append(resp, " conf="...)
		resp = strconv.AppendFloat(resp, res.Confidence, 'f', 3, 64)
		resp = append(resp, " remap="...)
		resp = strconv.AppendBool(resp, res.Remapped)
		resp = append(resp, " degraded="...)
		resp = strconv.AppendBool(resp, res.Degraded)
		resp = append(resp, " reason="...)
		for i := 0; i < len(res.Reason); i++ {
			if c := res.Reason[i]; c == ' ' {
				resp = append(resp, '_')
			} else {
				resp = append(resp, c)
			}
		}
		return resp, false

	case "SNAP":
		if sess.tenant == "" {
			return append(resp, "ERR HELLO first"...), false
		}
		snap, err := sess.srv.Snapshot(sess.tenant)
		if err != nil {
			return appendErr(resp, err), false
		}
		if snap.Quarantined {
			return fmt.Appendf(resp, "ERR tenant quarantined: %v", snap.PanicValue), false
		}
		return fmt.Appendf(resp, "OK events=%d applied=%d dropped=%d total=%d nnz=%d conf=%.3f",
			snap.Ingested, snap.Applied, snap.Dropped,
			snap.Matrix.Total(), snap.Matrix.NNZ(), snap.Confidence), false

	case "BYE":
		return append(resp, "OK bye"...), true

	case "":
		return append(resp, "ERR empty request"...), false

	default:
		return fmt.Appendf(resp, "ERR unknown command %q", cmd), false
	}
}

// handleHello binds the session to a tenant (and optionally a source) per
// the HELLO contract documented above.
func (sess *session) handleHello(args, resp []byte) []byte {
	tenantTok, rest := nextField(args)
	threadsTok, rest := nextField(rest)
	sourceTok, rest := nextField(rest)
	if extra, _ := nextField(rest); len(tenantTok) == 0 || len(threadsTok) == 0 || len(extra) != 0 {
		return append(resp, "ERR usage: HELLO <tenant> <threads> [source]"...)
	}
	threads, err := strconv.Atoi(string(threadsTok))
	if err != nil {
		return fmt.Appendf(resp, "ERR bad thread count %q", threadsTok)
	}
	tenant := string(tenantTok)
	if err := sess.srv.CreateTenant(tenant, threads); err != nil {
		return appendErr(resp, err)
	}
	if sess.durT != nil {
		sess.release(nil) // the held acks belong to the tenant being unbound
	}
	sess.tenant = tenant
	sess.source = ""
	if len(sourceTok) > 0 {
		sess.source = string(sourceTok)
		seq, err := sess.srv.SourceSeq(sess.tenant, sess.source)
		if err != nil {
			return appendErr(resp, err)
		}
		resp = append(resp, "OK seq="...)
		return strconv.AppendUint(resp, seq, 10)
	}
	return append(resp, "OK"...)
}

// handleEvents parses and ingests one E line. This is the hot path: every
// token is sliced and parsed in place, the event batch reuses the
// session's scratch slice, and the success response is appended without
// formatting.
func (sess *session) handleEvents(args, resp []byte) []byte {
	if sess.tenant == "" {
		return append(resp, "ERR HELLO first"...)
	}
	var seq uint64
	if sess.source != "" {
		tok, rest := nextField(args)
		if len(tok) == 0 || bytes.IndexByte(tok, ':') >= 0 {
			return append(resp, "ERR sourced session: usage: E <seq> <thread:page> ..."...)
		}
		v, ok := parseUint(tok)
		if !ok {
			return fmt.Appendf(resp, "ERR bad batch seq %q", tok)
		}
		seq, args = v, rest
	}
	batch := sess.batch[:0]
	for {
		tok, rest := nextField(args)
		if len(tok) == 0 {
			break
		}
		args = rest
		if len(batch) == MaxBatch {
			n := len(batch) + 1
			for {
				if tok, args = nextField(args); len(tok) == 0 {
					break
				}
				n++
			}
			sess.batch = batch
			return fmt.Appendf(resp, "ERR batch of %d events exceeds cap %d", n, MaxBatch)
		}
		colon := bytes.IndexByte(tok, ':')
		if colon < 0 {
			sess.batch = batch
			return fmt.Appendf(resp, "ERR bad event %q (want thread:page)", tok)
		}
		thread, ok := parseInt32(tok[:colon])
		if !ok {
			sess.batch = batch
			return fmt.Appendf(resp, "ERR bad thread in %q", tok)
		}
		page, ok := parsePage(tok[colon+1:])
		if !ok {
			sess.batch = batch
			return fmt.Appendf(resp, "ERR bad page in %q", tok)
		}
		batch = append(batch, Event{Thread: thread, Page: vm.Page(page)})
	}
	sess.batch = batch
	t, wait, err := sess.srv.ingest(sess.tenant, sess.source, seq, batch)
	if wait != 0 {
		sess.hold(t, wait)
	}
	if err != nil {
		if errors.Is(err, ErrDuplicateBatch) {
			// Idempotent retransmit: already applied, acknowledge without
			// re-applying.
			return append(resp, "OK dup"...)
		}
		return appendErr(resp, err)
	}
	resp = append(resp, "OK "...)
	return strconv.AppendInt(resp, int64(len(batch)), 10)
}

func appendErr(resp []byte, err error) []byte {
	resp = append(resp, "ERR "...)
	return append(resp, err.Error()...)
}

// nextField returns the first space/tab-delimited token of line and the
// remainder. A zero-length token means the line is exhausted.
func nextField(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' {
		j++
	}
	return line[i:j], line[j:]
}

// parseUint parses a decimal uint64, rejecting empty input, junk, and
// overflow — strconv.ParseUint(s, 10, 64) without the string conversion.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parsePage parses a page number in the two spellings the protocol
// documents: decimal or 0x/0X-prefixed hex.
func parsePage(b []byte) (uint64, bool) {
	if len(b) > 2 && b[0] == '0' && (b[1] == 'x' || b[1] == 'X') {
		var v uint64
		for _, c := range b[2:] {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				return 0, false
			}
			if v>>60 != 0 {
				return 0, false
			}
			v = v<<4 | d
		}
		return v, true
	}
	return parseUint(b)
}

// parseInt32 parses a signed decimal int32. Range errors reject rather
// than saturate, matching strconv.ParseInt(s, 10, 32).
func parseInt32(b []byte) (int32, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseUint(b)
	if !ok {
		return 0, false
	}
	if neg {
		if v > 1<<31 {
			return 0, false
		}
		return int32(-int64(v)), true
	}
	if v > 1<<31-1 {
		return 0, false
	}
	return int32(v), true
}
