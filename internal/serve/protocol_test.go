package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

// protoClient is a line-oriented test client over an in-memory pipe served
// by the same ServeConn path TCP connections use.
type protoClient struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func dialProto(t *testing.T, s *Server) *protoClient {
	t.Helper()
	client, server := net.Pipe()
	go s.ServeConn(server)
	t.Cleanup(func() { client.Close() })
	return &protoClient{t: t, conn: client, rd: bufio.NewReader(client)}
}

func (c *protoClient) roundTrip(line string) string {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		c.t.Fatalf("write %q: %v", line, err)
	}
	resp, err := c.rd.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read response to %q: %v", line, err)
	}
	return strings.TrimSuffix(resp, "\n")
}

func (c *protoClient) expectOK(line string) string {
	c.t.Helper()
	resp := c.roundTrip(line)
	if !strings.HasPrefix(resp, "OK") {
		c.t.Fatalf("%q: got %q, want OK", line, resp)
	}
	return resp
}

func (c *protoClient) expectERR(line string) string {
	c.t.Helper()
	resp := c.roundTrip(line)
	if !strings.HasPrefix(resp, "ERR") {
		c.t.Fatalf("%q: got %q, want ERR", line, resp)
	}
	return resp
}

func TestProtocolRoundTrips(t *testing.T) {
	s := New(Config{})
	c := dialProto(t, s)

	c.expectOK("HELLO app 4")
	if resp := c.expectOK("E 0:7 1:7 2:100"); resp != "OK 3" {
		t.Errorf("E acknowledged %q, want \"OK 3\"", resp)
	}
	waitApplied(t, s, "app", 3)

	snap := c.expectOK("SNAP")
	if !strings.Contains(snap, "events=3") || !strings.Contains(snap, "applied=3") ||
		!strings.Contains(snap, "total=1") {
		t.Errorf("SNAP = %q, want events=3 applied=3 total=1", snap)
	}

	q := c.expectOK("Q")
	fields := strings.Fields(q)
	if len(fields) < 2 {
		t.Fatalf("Q = %q, want placement + metadata", q)
	}
	if got := len(strings.Split(fields[1], ",")); got != 4 {
		t.Errorf("Q placement %q has %d entries, want 4", fields[1], got)
	}
	if !strings.Contains(q, "conf=") || !strings.Contains(q, "degraded=false") {
		t.Errorf("Q = %q, want conf= and degraded=false", q)
	}

	// Hex pages parse per strconv.
	c.expectOK("E 3:0x2a")

	if resp := c.expectOK("BYE"); resp != "OK bye" {
		t.Errorf("BYE = %q", resp)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := New(Config{})
	c := dialProto(t, s)

	// Everything except HELLO requires a bound tenant.
	for _, line := range []string{"E 0:1", "Q", "SNAP"} {
		if resp := c.expectERR(line); !strings.Contains(resp, "HELLO first") {
			t.Errorf("%q before HELLO: %q", line, resp)
		}
	}
	c.expectERR("HELLO")          // wrong arity
	c.expectERR("HELLO app x")    // bad thread count
	c.expectERR("HELLO app 3")    // not a power of two
	c.expectERR("HELLO app 4096") // above the 1024-thread cap
	c.expectOK("HELLO app 4")
	c.expectERR("HELLO app 8") // same tenant, different threads

	c.expectERR("E 0")    // missing colon
	c.expectERR("E x:1")  // bad thread
	c.expectERR("E 0:zz") // bad page
	c.expectERR("E 9:1")  // thread out of the tenant's range
	c.expectERR("NOPE")   // unknown command
	c.expectERR("")       // empty request

	// A batch above the cap is refused outright.
	var b strings.Builder
	b.WriteString("E")
	for i := 0; i <= MaxBatch; i++ {
		fmt.Fprintf(&b, " %d:%d", i%4, i)
	}
	if resp := c.expectERR(b.String()); !strings.Contains(resp, "cap") {
		t.Errorf("oversized batch: %q", resp)
	}

	// Errors are not fatal: the connection still works.
	c.expectOK("E 0:1")
}

// TestProtocolSequencedSession exercises the sourced wire protocol: HELLO
// with a source name answers the acknowledged sequence, E lines carry batch
// numbers, retransmits get "OK dup", gaps get ERR, and a reconnecting
// client resumes exactly where the server says it left off.
func TestProtocolSequencedSession(t *testing.T) {
	s := New(Config{})
	c := dialProto(t, s)

	if resp := c.expectOK("HELLO app 4 src-a"); resp != "OK seq=0" {
		t.Errorf("fresh sourced HELLO = %q, want \"OK seq=0\"", resp)
	}
	// Sourced sessions must number their batches.
	if resp := c.expectERR("E 0:1"); !strings.Contains(resp, "sourced") {
		t.Errorf("unnumbered E on sourced session: %q", resp)
	}
	c.expectOK("E 1 0:7 1:7")
	c.expectOK("E 2 2:7")
	waitApplied(t, s, "app", 3)

	// Retransmits acknowledge without re-applying; skips are refused.
	if resp := c.expectOK("E 2 2:7"); resp != "OK dup" {
		t.Errorf("replayed batch = %q, want \"OK dup\"", resp)
	}
	if resp := c.expectOK("E 1 0:7 1:7"); resp != "OK dup" {
		t.Errorf("older replayed batch = %q, want \"OK dup\"", resp)
	}
	if resp := c.expectERR("E 4 3:7"); !strings.Contains(resp, "gap") {
		t.Errorf("skipped seq = %q, want sequence-gap ERR", resp)
	}
	snap, err := s.Snapshot("app")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ingested != 3 || snap.Applied != 3 {
		t.Errorf("after dup+gap: ingested=%d applied=%d, want 3/3", snap.Ingested, snap.Applied)
	}

	// A reconnecting client resumes from the acknowledged number.
	c2 := dialProto(t, s)
	if resp := c2.expectOK("HELLO app 4 src-a"); resp != "OK seq=2" {
		t.Errorf("reconnect HELLO = %q, want \"OK seq=2\"", resp)
	}
	c2.expectOK("E 3 3:7")
	waitApplied(t, s, "app", 4)

	// An independent source numbers its own stream from scratch.
	c3 := dialProto(t, s)
	if resp := c3.expectOK("HELLO app 4 src-b"); resp != "OK seq=0" {
		t.Errorf("second source HELLO = %q, want \"OK seq=0\"", resp)
	}
	c3.expectOK("E 1 0:9")
	waitApplied(t, s, "app", 5)
}

func TestProtocolIdempotentHello(t *testing.T) {
	s := New(Config{})
	c1 := dialProto(t, s)
	c2 := dialProto(t, s)
	c1.expectOK("HELLO shared 4")
	c2.expectOK("HELLO shared 4") // reconnecting client, same shape
	c1.expectOK("E 0:7")
	c2.expectOK("E 1:7")
	waitApplied(t, s, "shared", 2)
	snap, err := s.Snapshot("shared")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Matrix.Total() != 1 {
		t.Errorf("two connections into one tenant: total = %d, want 1", snap.Matrix.Total())
	}
}
