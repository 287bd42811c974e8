package server_test

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/server"
	"skipqueue/internal/wire"
)

// tracedConn is a raw wire-protocol connection for sending hand-built
// traced frames (the client package's tracing support has its own tests).
type tracedConn struct {
	t    *testing.T
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte
}

func dialRaw(t *testing.T, addr string) *tracedConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tracedConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// roundTrip writes f and reads one response frame.
func (c *tracedConn) roundTrip(f wire.Frame) wire.Frame {
	c.t.Helper()
	out, err := wire.Append(nil, f)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.nc.Write(out); err != nil {
		c.t.Fatal(err)
	}
	resp, rb, err := wire.Read(c.br, c.rbuf, wire.DefaultMaxFrame)
	c.rbuf = rb
	if err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// kindCounts tallies a dump's events by kind, and by trace for spans.
func kindCounts(d flight.Dump) (byKind map[flight.Kind]int, byTrace map[uint64]map[flight.Kind]int) {
	byKind = map[flight.Kind]int{}
	byTrace = map[uint64]map[flight.Kind]int{}
	for _, e := range d.Events {
		byKind[e.Kind]++
		if e.Trace != 0 {
			if byTrace[e.Trace] == nil {
				byTrace[e.Trace] = map[flight.Kind]int{}
			}
			byTrace[e.Trace][e.Kind]++
		}
	}
	return byKind, byTrace
}

// TestFlightServerSpans: every traced frame leaves a read/apply/flush
// triple under its trace ID, untraced frames leave none, and batch
// boundaries are marked.
func TestFlightServerSpans(t *testing.T) {
	fr := flight.New("server", 0, 0)
	_, _, addr := startServer(t, server.Config{Flight: fr})
	c := dialRaw(t, addr)

	const n = 10
	for i := uint64(1); i <= n; i++ {
		resp := c.roundTrip(wire.Frame{
			Kind: wire.OpInsert, Arg: int64(i), Data: []byte("v"),
			Trace: i, SendNano: time.Now().UnixNano(),
		})
		if resp.Kind != wire.StatusOK {
			t.Fatalf("traced insert answered %v", resp.Kind)
		}
	}
	if resp := c.roundTrip(wire.Frame{Kind: wire.OpPing}); resp.Kind != wire.StatusOK {
		t.Fatalf("untraced ping answered %v", resp.Kind)
	}

	d := fr.Snapshot()
	byKind, byTrace := kindCounts(d)
	if byKind[flight.KServerRead] != n || byKind[flight.KServerApply] != n || byKind[flight.KServerFlush] != n {
		t.Fatalf("span events = %v, want %d of each read/apply/flush", byKind, n)
	}
	if byKind[flight.KServerBatch] < n {
		t.Fatalf("batch marks = %d, want >= %d (one per flush)", byKind[flight.KServerBatch], n)
	}
	for i := uint64(1); i <= n; i++ {
		spans := byTrace[i]
		if spans[flight.KServerRead] != 1 || spans[flight.KServerApply] != 1 || spans[flight.KServerFlush] != 1 {
			t.Fatalf("trace %d spans = %v, want one of each", i, spans)
		}
	}
	// Span arithmetic: for each trace, flush span >= 0 and apply duration
	// fits inside it.
	events := map[uint64]map[flight.Kind]flight.Event{}
	for _, e := range d.Events {
		if e.Trace != 0 {
			if events[e.Trace] == nil {
				events[e.Trace] = map[flight.Kind]flight.Event{}
			}
			events[e.Trace][e.Kind] = e
		}
	}
	for tr, evs := range events {
		read, flush, apply := evs[flight.KServerRead], evs[flight.KServerFlush], evs[flight.KServerApply]
		if flush.Arg != flush.TS-read.TS {
			t.Fatalf("trace %d flush arg %d != flushTS-readTS %d", tr, flush.Arg, flush.TS-read.TS)
		}
		if apply.Arg < 0 || apply.Arg > flush.Arg {
			t.Fatalf("trace %d apply duration %d outside flush span %d", tr, apply.Arg, flush.Arg)
		}
	}
}

// TestFlightSLOBreach: an impossible SLO flags every traced frame.
func TestFlightSLOBreach(t *testing.T) {
	fr := flight.New("server", 0, 0)
	_, _, addr := startServer(t, server.Config{Flight: fr, SLO: time.Nanosecond})
	c := dialRaw(t, addr)
	c.roundTrip(wire.Frame{Kind: wire.OpPing, Trace: 7, SendNano: time.Now().UnixNano()})
	// The breach is recorded after the traced reply is written; the reply
	// to a second frame on the same connection proves that has happened.
	c.roundTrip(wire.Frame{Kind: wire.OpPing})
	if fr.Anomalies() == 0 {
		t.Fatal("1ns SLO produced no anomaly")
	}
	d, ok := fr.LastAnomaly()
	if !ok {
		t.Fatal("no anomaly dump captured")
	}
	byKind, _ := kindCounts(d)
	if byKind[flight.KSLOBreach] == 0 {
		t.Fatalf("anomaly dump lacks KSLOBreach: %v", byKind)
	}
}

// TestFlightBusyAnomaly: a BUSY reject records the anomaly with the held
// connection count.
func TestFlightBusyAnomaly(t *testing.T) {
	fr := flight.New("server", 0, 0)
	_, _, addr := startServer(t, server.Config{Flight: fr, MaxConns: 1})
	c := dialRaw(t, addr)
	if resp := c.roundTrip(wire.Frame{Kind: wire.OpPing}); resp.Kind != wire.StatusOK {
		t.Fatalf("first conn refused: %v", resp.Kind)
	}
	c2 := dialRaw(t, addr)
	resp, rb, err := wire.Read(bufio.NewReader(c2.nc), nil, wire.DefaultMaxFrame)
	_ = rb
	if err != nil || resp.Kind != wire.StatusBusy {
		t.Fatalf("second conn got %v/%v, want BUSY", resp.Kind, err)
	}
	if fr.Anomalies() == 0 {
		t.Fatal("BUSY reject recorded no anomaly")
	}
	d, _ := fr.LastAnomaly()
	byKind, _ := kindCounts(d)
	if byKind[flight.KBusyReject] == 0 {
		t.Fatalf("anomaly dump lacks KBusyReject: %v", byKind)
	}
}

// TestFlightDrainAnomaly: Shutdown's first drain marks KDrainStart once,
// idempotently.
func TestFlightDrainAnomaly(t *testing.T) {
	fr := flight.New("server", 0, 0)
	srv, _, _ := startServer(t, server.Config{Flight: fr, DrainWindow: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	d := fr.Snapshot()
	byKind, _ := kindCounts(d)
	if byKind[flight.KDrainStart] != 1 {
		t.Fatalf("KDrainStart events = %d, want exactly 1", byKind[flight.KDrainStart])
	}
}
