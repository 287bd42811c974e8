package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/backends"
	"skipqueue/internal/client"
	"skipqueue/internal/server"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = skipqueue.NewPQ[[]byte]()
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestDialFailure: a dead address fails Dial with the typed ErrConn.
func TestDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := client.Dial(client.Config{Addr: addr, DialTimeout: time.Second}); !errors.Is(err, client.ErrConn) {
		t.Fatalf("Dial to closed port: err = %v, want ErrConn", err)
	}
}

// TestClosedClient: every call on a closed client fails with ErrClosed.
func TestClosedClient(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Ping(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Ping after Close: err = %v, want ErrClosed", err)
	}
	if err := cl.Insert(1, []byte("x")); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
}

// TestReconnect: the pool redials a connection the server dropped, so a
// repeat-safe op recovers transparently.
func TestReconnect(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// Kill the server, dropping the pooled connection with it.
	srv.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping succeeded against a closed server")
	}
	// The redundant second failure exercises the dead-slot path too.
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping succeeded against a closed server")
	}
	// ...until a new server appears on the same address. The old listener
	// may linger in TIME_WAIT for a moment after srv.Close, so retry the
	// rebind rather than skipping the whole reconnect check on the first
	// EADDRINUSE.
	backend := skipqueue.NewPQ[[]byte]()
	srv2 := server.New(server.Config{Backend: backend})
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt >= 40 {
			t.Skipf("could not rebind %s after %d attempts: %v", addr, attempt, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	go srv2.Serve(ln)
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownTyped: ops against a draining server surface ErrShutdown.
func TestShutdownTyped(t *testing.T) {
	srv, addr := startServer(t, server.Config{DrainWindow: 300 * time.Millisecond})
	cl, err := client.Dial(client.Config{Addr: addr, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		close(done)
	}()
	// Poll until the drain flag is visible on the wire.
	var sawShutdown bool
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		err := cl.Ping()
		if errors.Is(err, client.ErrShutdown) {
			sawShutdown = true
			break
		}
		if err != nil {
			break // conn died after the window: acceptable end state
		}
	}
	<-done
	if !sawShutdown {
		t.Log("drain window closed before a SHUTDOWN reply was observed (conn error instead)")
	}
}

// TestPropertyVsLocalPQ is the protocol property test, run against every
// backend pqd serves: a random op sequence goes through client and server
// one op at a time, and the backend's contract model checks every reply.
// For an Exact backend that is op-for-op agreement with an in-process
// skipqueue.PQ (strict order, FIFO within equal priorities); for a
// Multiset backend, a held element per Pop, EMPTY iff nothing is held,
// and an exact Len. A final drain must return everything held.
func TestPropertyVsLocalPQ(t *testing.T) {
	for _, row := range backends.Rows {
		t.Run(row.Name, func(t *testing.T) {
			remote := row.New(backends.Params{Shards: 8, ElimSlots: 4, SprayK: 8,
				Opts: []skipqueue.Option{skipqueue.WithSeed(9)}})
			_, addr := startServer(t, server.Config{Backend: remote})
			cl, err := client.Dial(client.Config{Addr: addr, Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			m := row.Contract.Model()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				if err := propertyStep(cl, m, rng, i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for held := m.Len(); held >= 0; held-- {
				p, v, ok, err := cl.DeleteMin()
				if err == nil {
					err = m.Pop(p, v, ok)
				}
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
		})
	}
}

// propertyStep issues one random op and checks its reply against m.
func propertyStep(cl *client.Client, m *backends.Model, rng *rand.Rand, i int) error {
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // insert, biased to keep the queue non-trivial
		prio := int64(rng.Intn(64) - 32) // small range forces duplicate priorities
		val := []byte(fmt.Sprintf("v%d", i))
		m.Push(prio, val)
		return cl.Insert(prio, val)
	case 4, 5, 6:
		p, v, ok, err := cl.DeleteMin()
		if err != nil {
			return err
		}
		return m.Pop(p, v, ok)
	case 7, 8:
		p, v, ok, err := cl.Peek()
		if err != nil {
			return err
		}
		return m.Peek(p, v, ok)
	}
	n, err := cl.Len()
	if err == nil && n != m.Len() {
		err = fmt.Errorf("Len = %d, want %d", n, m.Len())
	}
	return err
}

// TestConcurrentCallers: many goroutines over a small pool; every call
// completes and the totals add up.
func TestConcurrentCallers(t *testing.T) {
	backend := skipqueue.NewPQ[[]byte]()
	_, addr := startServer(t, server.Config{Backend: backend})
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 3, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := cl.Insert(int64(g*perG+i), []byte{byte(g)}); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if n := backend.Len(); n != goroutines*perG {
		t.Fatalf("backend.Len = %d, want %d", n, goroutines*perG)
	}
}

// TestValueOwnership: the Value returned by DeleteMin is an owned copy that
// survives subsequent traffic on the same connection.
func TestValueOwnership(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert(1, []byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(2, bytes.Repeat([]byte{'z'}, 128)); err != nil {
		t.Fatal(err)
	}
	_, v1, _, err := cl.DeleteMin()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.DeleteMin(); err != nil { // overwrite the read buffer
		t.Fatal(err)
	}
	if string(v1) != "keep-me" {
		t.Fatalf("first value corrupted by buffer reuse: %q", v1)
	}
}
