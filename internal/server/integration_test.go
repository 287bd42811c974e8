package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/server"
)

// TestLoopbackIntegration is the acceptance test of the pqd subsystem:
// 8 concurrent client connections complete >=100k mixed Insert/DeleteMin
// operations against a loopback server with zero lost or duplicated items
// (the popped-plus-drained multiset must equal the inserted multiset), and
// a subsequent drain answers every in-flight request.
func TestLoopbackIntegration(t *testing.T) {
	const (
		workers       = 8
		opsPerWorker  = 13000 // 8 * 13000 = 104k ops
		insertPer1024 = 614   // ~60% inserts so the queue stays populated
	)

	backend := skipqueue.NewPQ[[]byte]()
	srv := server.New(server.Config{Backend: backend})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Each worker owns one connection (Conns: 1) and pipelines its ops in
	// windows. Values are globally unique uint64 tags (worker<<32 | i), so
	// duplicates and losses are both detectable in the final multiset.
	type popped struct {
		tags []uint64
	}
	inserted := make([][]uint64, workers)
	receives := make([]popped, workers)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: addr, Conns: 1, Window: 256})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()

			rngState := uint64(w)*0x9e3779b97f4a7c15 + 1
			nextRand := func() uint64 {
				rngState ^= rngState << 13
				rngState ^= rngState >> 7
				rngState ^= rngState << 17
				return rngState
			}
			const window = 64
			type slot struct {
				p      *client.Pending
				insert bool
			}
			pend := make([]slot, 0, window)
			flush := func() error {
				for _, s := range pend {
					res, err := s.p.Wait()
					if err != nil {
						return err
					}
					if !s.insert && res.Found {
						if len(res.Value) != 8 {
							return errors.New("short value")
						}
						receives[w].tags = append(receives[w].tags, binary.BigEndian.Uint64(res.Value))
					}
				}
				pend = pend[:0]
				return nil
			}
			for i := 0; i < opsPerWorker; i++ {
				var s slot
				var err error
				if nextRand()%1024 < insertPer1024 {
					tag := uint64(w)<<32 | uint64(i)
					val := make([]byte, 8)
					binary.BigEndian.PutUint64(val, tag)
					prio := int64(nextRand() % (1 << 20))
					s.insert = true
					s.p, err = cl.InsertAsync(prio, val)
					if err == nil {
						inserted[w] = append(inserted[w], tag)
					}
				} else {
					s.p, err = cl.DeleteMinAsync()
				}
				if err != nil {
					errc <- err
					return
				}
				pend = append(pend, s)
				if len(pend) == window {
					if err := flush(); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := flush(); err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("worker failed: %v", err)
	default:
	}

	// Drain the remainder through a client, then verify the multiset.
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	totalPopped := 0
	for w := range receives {
		for _, tag := range receives[w].tags {
			seen[tag]++
			totalPopped++
		}
	}
	lastPrio := int64(-1)
	for {
		p, v, found, err := cl.DeleteMin()
		if err != nil {
			t.Fatalf("drain DeleteMin: %v", err)
		}
		if !found {
			break
		}
		if p < lastPrio {
			t.Fatalf("drain priorities not ascending: %d after %d", p, lastPrio)
		}
		lastPrio = p
		if len(v) != 8 {
			t.Fatalf("drained value has %d bytes, want 8", len(v))
		}
		seen[binary.BigEndian.Uint64(v)]++
		totalPopped++
	}

	totalInserted := 0
	for w := range inserted {
		totalInserted += len(inserted[w])
		for _, tag := range inserted[w] {
			switch seen[tag] {
			case 1:
			case 0:
				t.Fatalf("item %#x lost", tag)
			default:
				t.Fatalf("item %#x delivered %d times", tag, seen[tag])
			}
			delete(seen, tag)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("%d items popped that were never inserted", len(seen))
	}
	if totalPopped != totalInserted {
		t.Fatalf("popped %d != inserted %d", totalPopped, totalInserted)
	}
	if n, err := cl.Len(); err != nil || n != 0 {
		t.Fatalf("Len after drain = %d, %v; want 0", n, err)
	}

	// Phase 2: drain under fire. Pipeline requests while Shutdown runs;
	// every pending must be answered, and exactly the acked inserts must
	// remain in the backend.
	pendings := make([]*client.Pending, 0, 512)
	stop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	var pmu sync.Mutex
	go func() {
		defer pumpWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p, err := cl.InsertAsync(int64(i), []byte{0, 0, 0, 0, 0, 0, 0, 1})
			if err != nil {
				return // connection refused mid-drain: expected
			}
			pmu.Lock()
			pendings = append(pendings, p)
			pmu.Unlock()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	pumpWG.Wait()

	acked := 0
	for i, p := range pendings {
		_, err := p.Wait()
		switch {
		case err == nil:
			acked++
		case errors.Is(err, client.ErrShutdown), errors.Is(err, client.ErrConn), errors.Is(err, client.ErrClosed):
		default:
			t.Fatalf("pending %d: %v (in-flight request not answered)", i, err)
		}
	}
	if got := backend.Len(); got != acked {
		t.Fatalf("backend holds %d items after drain, want %d (one per acked insert)", got, acked)
	}
	cl.Close()

	select {
	case err := <-serveDone:
		if !errors.Is(err, server.ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	snap := srv.Snapshot()
	if snap.Counter("frames") == 0 || snap.Counter("frames.insert") == 0 {
		t.Fatal("server frame counters empty")
	}
	t.Logf("integration: %d ops, %d inserted, drain answered %d late frames SHUTDOWN, batches p50=%v",
		snap.Counter("frames"), totalInserted, snap.Counter("drain.shutdown_replies"),
		func() any { h, _ := snap.Hist("batch.frames"); return h.P50 }())
}
