package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/server"
	"skipqueue/internal/wire"
)

// startServer launches a server over a fresh PQ backend on a loopback port
// and returns it with its address; cleanup closes it.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *skipqueue.PQ[[]byte], string) {
	t.Helper()
	backend := skipqueue.NewPQ[[]byte]()
	cfg.Backend = backend
	srv, addr := serve(t, cfg)
	return srv, backend, addr
}

// serve boots a loopback server over cfg.Backend, closed at cleanup.
func serve(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		select {
		case err := <-done:
			if !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	return srv, ln.Addr().String()
}

// TestBasicOps drives every op through a real client connection.
func TestBasicOps(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if n, err := cl.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; want 0, nil", n, err)
	}
	if _, _, found, err := cl.Peek(); err != nil || found {
		t.Fatalf("Peek on empty: found=%v err=%v", found, err)
	}
	if _, _, found, err := cl.DeleteMin(); err != nil || found {
		t.Fatalf("DeleteMin on empty: found=%v err=%v", found, err)
	}

	if err := cl.Insert(42, []byte("hello")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := cl.Insert(7, []byte("first")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if n, err := cl.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want 2, nil", n, err)
	}
	if p, v, found, err := cl.Peek(); err != nil || !found || p != 7 || string(v) != "first" {
		t.Fatalf("Peek = %d/%q/%v/%v; want 7/first", p, v, found, err)
	}
	if p, v, found, err := cl.DeleteMin(); err != nil || !found || p != 7 || string(v) != "first" {
		t.Fatalf("DeleteMin = %d/%q/%v/%v; want 7/first", p, v, found, err)
	}
	if p, v, found, err := cl.DeleteMin(); err != nil || !found || p != 42 || string(v) != "hello" {
		t.Fatalf("DeleteMin = %d/%q/%v/%v; want 42/hello", p, v, found, err)
	}
	if n, err := cl.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; want 0, nil", n, err)
	}
}

// TestEmptyValues: zero-length payloads are legal both ways.
func TestEmptyValues(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert(1, nil); err != nil {
		t.Fatal(err)
	}
	if p, v, found, err := cl.DeleteMin(); err != nil || !found || p != 1 || len(v) != 0 {
		t.Fatalf("DeleteMin = %d/%q/%v/%v; want 1 with empty value", p, v, found, err)
	}
}

// TestMaxConnsBackpressure: beyond MaxConns a connection gets one BUSY
// frame, which surfaces as the typed ErrBusy.
func TestMaxConnsBackpressure(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{MaxConns: 1, Metrics: true})

	cl1, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	if err := cl1.Ping(); err != nil { // ensure the slot is held
		t.Fatal(err)
	}

	cl2, err := client.Dial(client.Config{Addr: addr, Retries: -1})
	if err != nil {
		t.Fatal(err) // TCP connect succeeds; the refusal is a frame
	}
	defer cl2.Close()
	if err := cl2.Ping(); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("Ping on over-limit conn: err = %v, want ErrBusy", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Counter("backpressure.conn_rejects") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("conn_rejects counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMalformedFrame: a corrupt frame draws a typed ERR reply and the
// connection closes; the server survives.
func TestMalformedFrame(t *testing.T) {
	_, _, addr := startServer(t, server.Config{Metrics: true})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Valid length prefix, undefined kind byte.
	nc.Write([]byte{0, 0, 0, 9, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, _, err := wire.Read(nc, nil, 0)
	if err != nil {
		t.Fatalf("reading ERR reply: %v", err)
	}
	if f.Kind != wire.StatusErr {
		t.Fatalf("reply kind = %v, want ERR", f.Kind)
	}
	if _, _, err := wire.Read(nc, nil, 0); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("connection not closed after bad frame: %v", err)
	}

	// The server still serves new connections.
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after bad-frame conn: %v", err)
	}
}

// TestOversizedFrame: a frame over the protocol's frame budget is refused
// from its length prefix, without the server allocating or applying it.
func TestOversizedFrame(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	big := binary.BigEndian.AppendUint32(nil, wire.DefaultMaxFrame+1)
	big = append(big, byte(wire.OpInsert), 0, 0, 0, 0, 0, 0, 0, 1)
	nc.Write(big)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, _, err := wire.Read(nc, nil, 0)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if f.Kind != wire.StatusErr {
		t.Fatalf("reply kind = %v, want ERR", f.Kind)
	}
}

// TestPipeliningCounters: pipelined async calls all complete and the frame
// counters account for every request.
func TestPipeliningCounters(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{Metrics: true})
	cl, err := client.Dial(client.Config{Addr: addr, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 500
	pendings := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := cl.InsertAsync(int64(i), []byte{byte(i)})
		if err != nil {
			t.Fatalf("InsertAsync %d: %v", i, err)
		}
		pendings = append(pendings, p)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
	}
	if n2, err := cl.Len(); err != nil || n2 != n {
		t.Fatalf("Len = %d, %v; want %d", n2, err, n)
	}

	snap := srv.Snapshot()
	if got := snap.Counter("frames.insert"); got != n {
		t.Fatalf("frames.insert = %d, want %d", got, n)
	}
	if bh, ok := snap.Hist("batch.frames"); !ok || bh.Count == 0 {
		t.Fatal("batch.frames histogram empty")
	}
}

// TestShutdownDrain: Shutdown answers in-flight work, refuses new
// connections with SHUTDOWN, and Serve returns ErrServerClosed.
func TestShutdownDrain(t *testing.T) {
	srv, backend, addr := startServer(t, server.Config{Metrics: true, DrainWindow: 100 * time.Millisecond})
	cl, err := client.Dial(client.Config{Addr: addr, Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 100; i++ {
		if err := cl.Insert(int64(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	// Submit a burst and shut down while it is in flight.
	pendings := make([]*client.Pending, 0, 200)
	for i := 0; i < 200; i++ {
		p, err := cl.InsertAsync(int64(1000+i), []byte("y"))
		if err != nil {
			break // connection already draining — fine
		}
		pendings = append(pendings, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Every pending completes — applied or refused, never hung.
	okCount := 0
	for i, p := range pendings {
		_, err := p.Wait()
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, client.ErrShutdown), errors.Is(err, client.ErrConn), errors.Is(err, client.ErrClosed):
		case errors.Is(err, client.ErrTimeout):
			t.Fatalf("pending %d hung through drain", i)
		default:
			t.Fatalf("pending %d: unexpected error %v", i, err)
		}
	}
	// Acked inserts must actually be in the backend: 100 sync + okCount.
	if got := backend.Len(); got != 100+okCount {
		t.Fatalf("backend.Len = %d, want %d (100 sync + %d acked async)", got, 100+okCount, okCount)
	}

	// New connections are refused with SHUTDOWN.
	cl2, err := client.Dial(client.Config{Addr: addr, Retries: -1})
	if err == nil {
		defer cl2.Close()
		if err := cl2.Ping(); !errors.Is(err, client.ErrShutdown) && !errors.Is(err, client.ErrConn) {
			t.Fatalf("Ping after shutdown: err = %v, want ErrShutdown or ErrConn", err)
		}
	}

	if srv.Snapshot().Counter("drain.ns") == 0 {
		t.Fatal("drain.ns not recorded")
	}
}

// TestShutdownIdempotent: concurrent and repeated Shutdowns all return.
func TestShutdownIdempotent(t *testing.T) {
	srv, _, _ := startServer(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errc := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errc <- srv.Shutdown(ctx) }()
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Shutdown %d: %v", i, err)
		}
	}
}
