package client_test

import (
	"sync"
	"testing"

	"skipqueue/internal/client"
	"skipqueue/internal/flight"
	"skipqueue/internal/server"
)

// TestTracingEndToEnd: a traced client against a traced server produces a
// full span per call — client send/recv, server read/apply/flush — and
// flight.Attribute pairs every one with no orphans.
func TestTracingEndToEnd(t *testing.T) {
	sfr := flight.New("server", 0, 0)
	srv, addr := startServer(t, server.Config{Flight: sfr})
	cfr := flight.New("client", 0, 0)
	cl, err := client.Dial(client.Config{Addr: addr, Flight: cfr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, ops = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := cl.Insert(base+int64(i), []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := cl.DeleteMin(); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * ops)
	}
	wg.Wait()
	// The server records a frame's flush after it has written the reply,
	// so the last callers can be back here first. Close returns once every
	// connection handler has, which proves each flush is in the ring.
	srv.Close()

	at := flight.Attribute(cfr.Snapshot(), sfr.Snapshot())
	if want := workers * ops * 2; at.Total != want {
		t.Fatalf("attributed %d traces, want %d", at.Total, want)
	}
	if at.Rate() != 1.0 {
		t.Fatalf("attribution rate %.3f (clientOnly=%d serverOnly=%d partial=%d), want 1.0",
			at.Rate(), at.ClientOnly, at.ServerOnly, at.Partial)
	}
	for _, sp := range at.Spans {
		if sp.EndToEnd <= 0 {
			t.Fatalf("trace %d: non-positive end-to-end span %d", sp.Trace, sp.EndToEnd)
		}
		// Server may exceed EndToEnd for the same reason: the flush stamp
		// is taken after the socket write returns, by when the client can
		// have stamped its receive. Attribute clamps Network to zero then.
		if sp.Server < 0 || sp.Network != max(0, sp.EndToEnd-sp.Server) {
			t.Fatalf("trace %d: server span %d, network %d, end-to-end %d", sp.Trace, sp.Server, sp.Network, sp.EndToEnd)
		}
		if sp.Structure < 0 || sp.Structure > sp.Server {
			t.Fatalf("trace %d: structure span %d outside server span %d", sp.Trace, sp.Structure, sp.Server)
		}
	}
}

// TestTracingPendingID: async calls expose their trace ID; untraced
// clients report 0.
func TestTracingPendingID(t *testing.T) {
	_, addr := startServer(t, server.Config{})

	cfr := flight.New("client", 0, 0)
	traced, err := client.Dial(client.Config{Addr: addr, Flight: cfr})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	p, err := traced.InsertAsync(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace() == 0 {
		t.Fatal("traced client issued trace ID 0")
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	plain, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	p2, err := plain.InsertAsync(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Trace() != 0 {
		t.Fatalf("untraced client issued trace ID %d", p2.Trace())
	}
	if _, err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTracingUntracedServer: tracing only on the client side still
// completes calls (the server ignores nothing — traced frames decode the
// same) and the dump pairs as client-only orphans.
func TestTracingUntracedServer(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cfr := flight.New("client", 0, 0)
	cl, err := client.Dial(client.Config{Addr: addr, Flight: cfr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	at := flight.Attribute(cfr.Snapshot(), flight.Dump{})
	if at.ClientOnly != 10 || len(at.Spans) != 0 {
		t.Fatalf("clientOnly=%d spans=%d, want 10 orphans and no spans", at.ClientOnly, len(at.Spans))
	}
}
