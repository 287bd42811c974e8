package server_test

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipqueue/internal/backends"
	"skipqueue/internal/client"
	"skipqueue/internal/multiset"
	"skipqueue/internal/quality"
	"skipqueue/internal/server"
)

// TestSoakMixedClients is the server soak battery: for every backend the
// daemon can serve, a sustained mixed workload — batched and unbatched
// clients side by side on the same server — runs for 60 seconds (3 in
// short mode), every completed operation lands in a quality history, and
// quality.Analyze must prove exact multiset conservation: nothing lost,
// nothing duplicated, nothing invented, across both data planes at once.
//
// The mixed-client shape is the point: an OpBatch apply that dropped or
// double-applied an entry, or a combining run that interleaved two
// connections' ops incorrectly, shows up here as a conservation failure
// even when each client individually sees plausible responses.
func TestSoakMixedClients(t *testing.T) {
	duration := 60 * time.Second
	if testing.Short() {
		duration = 3 * time.Second
	}
	for _, row := range backends.Rows {
		t.Run(row.Name, func(t *testing.T) {
			t.Parallel()
			soakBackend(t, row.New(backends.Params{}), duration)
		})
	}
}

// soakBackend runs the mixed-client soak against one backend and verifies
// the full history.
func soakBackend(t *testing.T, backend multiset.Queue[[]byte], duration time.Duration) {
	srv := server.New(server.Config{Backend: backend})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	defer func() {
		srv.Close()
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
	}()

	// Four clients: two with the transparent batcher on, two speaking
	// plain single-op frames, all hammering the same queue.
	configs := []client.Config{
		{Addr: addr, Conns: 1, Window: 256, BatchMax: 32, BatchLinger: 200 * time.Microsecond},
		{Addr: addr, Conns: 1, Window: 256, BatchMax: 8},
		{Addr: addr, Conns: 1, Window: 256},
		{Addr: addr, Conns: 1, Window: 256},
	}

	rec := quality.NewRecorder(1 << 16)
	var stamps atomic.Int64
	// budget caps the history so the post-run Analyze replay (O(ops ×
	// live-set) with a sorted-slice live set) stays proportionate to the
	// soak itself; the duration still governs how long the server is held
	// under load when the backend is slow enough not to hit the cap.
	var budget atomic.Int64
	budget.Store(600_000)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	errc := make(chan error, len(configs))
	for w, cfg := range configs {
		wg.Add(1)
		go func(w int, cfg client.Config) {
			defer wg.Done()
			if err := soakWorker(w, cfg, deadline, rec, &stamps, &budget); err != nil {
				errc <- err
			}
		}(w, cfg)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("soak worker failed: %v", err)
	default:
	}

	// Drain everything left through a plain client; the drain's pops are
	// part of the history, so afterward nothing remains by construction
	// and Analyze checks the exact multiset.
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for {
		p, v, found, err := cl.DeleteMin()
		if err != nil {
			t.Fatalf("drain DeleteMin: %v", err)
		}
		if !found {
			break
		}
		if len(v) != 8 {
			t.Fatalf("drained value has %d bytes, want 8", len(v))
		}
		rec.Record(quality.Event{
			Key: p, ID: binary.BigEndian.Uint64(v), OK: true,
			Stamp: stamps.Add(1),
		})
	}
	if n, err := cl.Len(); err != nil || n != 0 {
		t.Fatalf("Len after drain = %d, %v; want 0", n, err)
	}

	events := rec.Events()
	rep, err := quality.Analyze(events, nil)
	if err != nil {
		t.Fatalf("conservation violated: %v", err)
	}
	if rep.Inserts == 0 || rep.Deletes == 0 {
		t.Fatalf("degenerate soak: %d inserts, %d deletes", rep.Inserts, rep.Deletes)
	}
	if h, ok := srv.BatchSnapshot().Hist("batch.size"); !ok || h.Count == 0 {
		t.Fatal("batch.size histogram empty — the batched clients never coalesced")
	}
	t.Logf("soak: %d inserts, %d deletes, %d empties conserved exactly",
		rep.Inserts, rep.Deletes, rep.Empties)
}

// soakWorker pipelines mixed inserts and pops on one client until the
// deadline, recording every completed op.
func soakWorker(w int, cfg client.Config, deadline time.Time, rec *quality.Recorder, stamps, budget *atomic.Int64) error {
	cl, err := client.Dial(cfg)
	if err != nil {
		return err
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
		key    int64
		id     uint64
	}
	pend := make([]slot, 0, window)
	flush := func() error {
		for _, s := range pend {
			res, err := s.p.Wait()
			if err != nil {
				return err
			}
			if s.insert {
				rec.Record(quality.Event{
					Insert: true, Key: s.key, ID: s.id, OK: true,
					Stamp: stamps.Add(1),
				})
			} else if res.Found {
				if len(res.Value) != 8 {
					return errors.New("soak: popped value is not an 8-byte id")
				}
				rec.Record(quality.Event{
					Key: res.Priority, ID: binary.BigEndian.Uint64(res.Value), OK: true,
					Stamp: stamps.Add(1),
				})
			} else {
				rec.Record(quality.Event{Stamp: stamps.Add(1)})
			}
		}
		pend = pend[:0]
		return nil
	}

	var seq uint64
	for i := 0; time.Now().Before(deadline) && budget.Add(-1) > 0; i++ {
		var s slot
		var err error
		// A balanced mix keeps the live set a small random walk, which is
		// what keeps the conservation replay cheap.
		if nextRand()%1024 < 512 {
			seq++
			s.insert = true
			s.id = uint64(w)<<48 | seq
			s.key = int64(nextRand() % (1 << 20))
			val := make([]byte, 8)
			binary.BigEndian.PutUint64(val, s.id)
			s.p, err = cl.InsertAsync(s.key, val)
		} else {
			s.p, err = cl.DeleteMinAsync()
		}
		if err != nil {
			return err
		}
		pend = append(pend, s)
		if len(pend) == window {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
