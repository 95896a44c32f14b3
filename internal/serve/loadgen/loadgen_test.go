package loadgen_test

import (
	"net"
	"testing"

	"tlbmap/internal/serve"
	"tlbmap/internal/serve/loadgen"
)

// TestQueryEveryZeroSendsNoQueries pins the documented meaning of
// QueryEvery 0: the fleet ships its batches and never queries, on the
// pipelined and the strict request/response paths alike.
func TestQueryEveryZeroSendsNoQueries(t *testing.T) {
	for _, reconnect := range []bool{false, true} {
		s := serve.New(serve.Config{})
		report, err := loadgen.Run(loadgen.Options{
			Dial: func() (net.Conn, error) {
				client, server := net.Pipe()
				go s.ServeConn(server)
				return client, nil
			},
			Conns: 4, Tenants: 2, EventsPerConn: 200, Batch: 20,
			QueryEvery: 0, Reconnect: reconnect,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Queries != 0 || report.Errors != 0 || report.HangUps != 0 {
			t.Errorf("reconnect=%v: queries=%d errors=%d hangups=%d, want all 0",
				reconnect, report.Queries, report.Errors, report.HangUps)
		}
		if report.Events != 4*200 || report.Batches != 4*10 {
			t.Errorf("reconnect=%v: acked %d events in %d batches, want 800 in 40",
				reconnect, report.Events, report.Batches)
		}
		if st := s.Stats(); st.Queries != 0 {
			t.Errorf("reconnect=%v: server answered %d queries", reconnect, st.Queries)
		}
	}
}
