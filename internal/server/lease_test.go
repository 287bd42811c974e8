package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/lease"
	"skipqueue/internal/quality"
	"skipqueue/internal/server"
)

// startLeaseServer boots a loopback server with the at-least-once
// protocol enabled over an in-memory backend.
func startLeaseServer(t *testing.T, lcfg lease.Config) (*server.Server, *lease.Table, string) {
	t.Helper()
	tbl := lease.New(lcfg, skipqueue.NewPQ[[]byte]())
	srv := server.New(server.Config{Backend: tbl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		tbl.Close()
	})
	return srv, tbl, ln.Addr().String()
}

// TestLeaseProtocolLifecycle walks grant → extend → ack, nack-redelivery,
// NOLEASE after expiry, delayed insert, and the dead-letter drain over
// the wire.
func TestLeaseProtocolLifecycle(t *testing.T) {
	_, tbl, addr := startLeaseServer(t, lease.Config{
		TTL: 200 * time.Millisecond, Tick: 5 * time.Millisecond, MaxDeliveries: 2,
	})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Insert(7, []byte("job")); err != nil {
		t.Fatal(err)
	}
	l, found, err := cl.PopLease(0)
	if err != nil || !found {
		t.Fatalf("PopLease = %v/%v", found, err)
	}
	if l.ID == 0 || l.Priority != 7 || string(l.Value) != "job" {
		t.Fatalf("lease = %+v", l)
	}
	if time.Until(l.Deadline()) <= 0 {
		t.Fatal("granted lease already expired")
	}
	// While leased the element is invisible to everyone else.
	if _, found, _ := cl.PopLease(0); found {
		t.Fatal("leased element granted twice")
	}
	d0 := l.Deadline()
	time.Sleep(10 * time.Millisecond)
	if d1, err := l.Extend(0); err != nil || !d1.After(d0) {
		t.Fatalf("Extend: deadline %v -> %v, err %v", d0, d1, err)
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := l.Ack(); !errors.Is(err, client.ErrNoLease) {
		t.Fatalf("double ack = %v, want ErrNoLease", err)
	}

	// Nack redelivers immediately with the delivery count advanced.
	cl.Insert(1, []byte("retry"))
	l, _, _ = cl.PopLease(0)
	if err := l.Nack(); err != nil {
		t.Fatal(err)
	}
	l, found, err = cl.PopLease(0)
	if err != nil || !found || string(l.Value) != "retry" {
		t.Fatalf("redelivery after nack = %v/%v/%v", l, found, err)
	}
	// Second unacked delivery of a MaxDeliveries=2 element dead-letters it.
	if err := l.Nack(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cl.PopLease(0); found {
		t.Fatal("over-budget element still delivered from the main queue")
	}
	dl, found, err := cl.PopLeaseDead(0)
	if err != nil || !found || string(dl.Value) != "retry" {
		t.Fatalf("dead-letter drain = %v/%v/%v", dl, found, err)
	}
	if err := dl.Ack(); err != nil {
		t.Fatal(err)
	}

	// A lease the consumer sat on past its TTL: the server redelivers and
	// the late ack reports NOLEASE.
	cl.Insert(3, []byte("slow"))
	l, _, _ = cl.PopLease(50 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	var l2 *client.Lease
	for {
		if l2, found, err = cl.PopLease(0); err != nil {
			t.Fatal(err)
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never redelivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Ack(); !errors.Is(err, client.ErrNoLease) {
		t.Fatalf("late ack = %v, want ErrNoLease", err)
	}
	if err := l2.Ack(); err != nil {
		t.Fatal(err)
	}

	// Delayed insert is invisible until it matures.
	if err := cl.InsertDelay(9, 80*time.Millisecond, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cl.PopLease(0); found {
		t.Fatal("immature element delivered")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if l, found, err = cl.PopLease(0); err != nil {
			t.Fatal(err)
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed element never matured")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if string(l.Value) != "later" || l.Priority != 9 {
		t.Fatalf("matured element = %+v", l)
	}
	l.Ack()

	if n := tbl.Outstanding(); n != 0 {
		t.Fatalf("%d leases outstanding at rest", n)
	}
}

// TestLeaseAutoExtend: a consumer slower than the TTL keeps its lease
// through the heartbeat; the element is not redelivered.
func TestLeaseAutoExtend(t *testing.T) {
	_, _, addr := startLeaseServer(t, lease.Config{
		TTL: 60 * time.Millisecond, Tick: 5 * time.Millisecond,
	})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Insert(1, []byte("slow-job"))
	l, found, err := cl.PopLease(0)
	if err != nil || !found {
		t.Fatalf("PopLease = %v/%v", found, err)
	}
	stop := l.AutoExtend(0)
	defer stop()
	// Work for several TTLs; the heartbeat must keep the lease alive.
	time.Sleep(250 * time.Millisecond)
	if _, found, _ := cl.PopLease(0); found {
		t.Fatal("heartbeat lost the lease: element redelivered")
	}
	if err := l.Ack(); err != nil {
		t.Fatalf("ack after auto-extend = %v", err)
	}
}

// TestLeaseAtLeastOnce is the acceptance run for the protocol's delivery
// guarantee on a live server: concurrent consumers ack most elements,
// abandon some (simulated crashes — the lease just expires), and nack
// others; the recorded history must satisfy AnalyzeAtLeastOnce exactly —
// every element acked once or still present, no post-ack deliveries.
func TestLeaseAtLeastOnce(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 250
		total     = producers * perProd
	)
	_, tbl, addr := startLeaseServer(t, lease.Config{
		TTL: 80 * time.Millisecond, Tick: 5 * time.Millisecond,
	})

	var stamp atomic.Int64
	var mu sync.Mutex
	var events []quality.DeliveryEvent
	record := func(k quality.DKind, id uint64, key int64) {
		s := stamp.Add(1)
		mu.Lock()
		events = append(events, quality.DeliveryEvent{Kind: k, ID: id, Key: key, Stamp: s})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	errc := make(chan error, producers+consumers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: addr})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perProd; i++ {
				id := uint64(p)<<32 | uint64(i)
				val := make([]byte, 8)
				binary.BigEndian.PutUint64(val, id)
				prio := int64(id % 1024)
				// Record before the insert lands so a racing delivery
				// can never precede its insert event.
				record(quality.DInsert, id, prio)
				if err := cl.Insert(prio, val); err != nil {
					errc <- err
					return
				}
			}
		}(p)
	}

	var ackedCount atomic.Int64
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: addr})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			rng := uint64(c)*0x9e3779b97f4a7c15 + 1
			for {
				select {
				case <-done:
					return
				default:
				}
				l, found, err := cl.PopLease(0)
				if err != nil {
					errc <- err
					return
				}
				if !found {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				id := binary.BigEndian.Uint64(l.Value)
				record(quality.DDeliver, id, l.Priority)
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch rng % 10 {
				case 0:
					// Simulated consumer crash: walk away, let it expire.
				case 1:
					if err := l.Nack(); err != nil && !errors.Is(err, client.ErrNoLease) {
						errc <- err
						return
					}
				default:
					err := l.Ack()
					if errors.Is(err, client.ErrNoLease) {
						// Lease expired under us: the element will be
						// redelivered; our processing did not count.
						continue
					}
					if err != nil {
						errc <- err
						return
					}
					record(quality.DAck, id, l.Priority)
					if ackedCount.Add(1) == total {
						close(done)
						return
					}
				}
			}
		}(c)
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatalf("run wedged: %d/%d acked", ackedCount.Load(), total)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Everything was eventually acked, so nothing may remain.
	if n := tbl.Len(); n != 0 {
		t.Fatalf("queue holds %d elements after full ack", n)
	}
	rep, err := quality.AnalyzeAtLeastOnce(events, nil)
	if err != nil {
		t.Fatalf("history violates at-least-once: %v", err)
	}
	if rep.Acked != total {
		t.Fatalf("report acked %d, want %d", rep.Acked, total)
	}
	t.Logf("at-least-once: %v", rep)
}

// TestLeaseDrainNacksBack: Shutdown returns outstanding leases to the
// queue before the final barrier, so nothing in flight is stranded.
func TestLeaseDrainNacksBack(t *testing.T) {
	tbl := lease.New(lease.Config{TTL: time.Hour, Tick: 5 * time.Millisecond}, skipqueue.NewPQ[[]byte]())
	defer tbl.Close()
	srv := server.New(server.Config{Backend: tbl, DrainWindow: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		cl.Insert(int64(i), []byte{byte(i)})
	}
	for i := 0; i < 3; i++ {
		if _, found, err := cl.PopLease(0); err != nil || !found {
			t.Fatalf("PopLease %d = %v/%v", i, found, err)
		}
	}
	if tbl.Outstanding() != 3 {
		t.Fatalf("outstanding = %d", tbl.Outstanding())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if tbl.Outstanding() != 0 {
		t.Fatalf("%d leases survived the drain", tbl.Outstanding())
	}
	if n := tbl.Len(); n != 5 {
		t.Fatalf("drained queue holds %d elements, want all 5 back", n)
	}
	var nacked uint64
	for _, c := range srv.Snapshot().Counters {
		if c.Name == "drain.leases_nacked" {
			nacked = c.Value
		}
	}
	if nacked != 3 {
		t.Fatalf("drain.leases_nacked = %d, want 3", nacked)
	}
}
