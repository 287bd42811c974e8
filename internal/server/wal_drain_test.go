package server_test

import (
	"context"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/quality"
	"skipqueue/internal/server"
	"skipqueue/internal/wal"
)

// TestWALDrainRestart is the drain-ordering conservation check: every
// operation the server ACKed before and during a drain must survive a
// process restart exactly once — even in async WAL mode, where individual
// ACKs never waited for an fsync and only the drain path's final Sync and
// snapshot stand between the ACKs and the abyss.
func TestWALDrainRestart(t *testing.T) {
	for _, mode := range []wal.Mode{wal.ModeSync, wal.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := wal.Config{Dir: dir, Mode: mode, SyncInterval: time.Millisecond}
			q, _, err := wal.OpenQueue(cfg, skipqueue.NewPQ[[]byte]())
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Config{
				Backend:     q,
				DrainWindow: 50 * time.Millisecond,
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()

			cl, err := client.Dial(client.Config{Addr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// The history: values carry the element identity so the restart
			// side can reconcile by ID, not just by count.
			var events []quality.Event
			stamp := int64(0)
			for id := uint64(1); id <= 300; id++ {
				key := int64(id % 17)
				if err := cl.Insert(key, []byte(strconv.FormatUint(id, 10))); err != nil {
					t.Fatalf("insert %d: %v", id, err)
				}
				stamp++
				events = append(events, quality.Event{Insert: true, Key: key, ID: id, OK: true, Stamp: stamp})
			}
			for i := 0; i < 120; i++ {
				key, v, found, err := cl.DeleteMin()
				if err != nil || !found {
					t.Fatalf("deletemin %d: found=%v err=%v", i, found, err)
				}
				id, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					t.Fatalf("deletemin %d returned value %q", i, v)
				}
				stamp++
				events = append(events, quality.Event{Insert: false, Key: key, ID: id, OK: true, Stamp: stamp})
			}

			// Drain, then finish the WAL the way cmd/pqd does on SIGTERM.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			<-done
			if err := q.Close(); err != nil {
				t.Fatalf("wal close: %v", err)
			}

			// Restart: recover into a fresh backend and drain it completely.
			q2, rec, err := wal.OpenQueue(cfg, skipqueue.NewPQ[[]byte]())
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer q2.Close()
			if q2.Len() != 180 {
				t.Fatalf("recovered %d items, want 180 (recover=%+v)", q2.Len(), rec)
			}
			var remaining []quality.Element
			for {
				key, v, ok := q2.Pop()
				if !ok {
					break
				}
				id, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					t.Fatalf("recovered value %q is not an id", v)
				}
				remaining = append(remaining, quality.Element{Key: key, ID: id})
			}
			rep, err := quality.Analyze(events, remaining)
			if err != nil {
				t.Fatalf("conservation across drain+restart: %v", err)
			}
			t.Logf("mode=%s %s", mode, rep)
		})
	}
}

// TestGroupCommitAcrossConns: with every connection committing for itself,
// the log's group commit is what amortizes the fsync across connections.
// Eight connections insert one op per frame over a sync-mode WAL; every
// ACKed insert must be recovered after Close, and the log must have needed
// strictly fewer fsyncs than it wrote records.
func TestGroupCommitAcrossConns(t *testing.T) {
	dir := t.TempDir()
	q, _, err := wal.OpenQueue(wal.Config{Dir: dir, Mode: wal.ModeSync}, skipqueue.NewPQ[[]byte]())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Backend: q})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	const conns, per = 8, 100
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: ln.Addr().String()})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < per; i++ {
				id := c*per + i
				if err := cl.Insert(int64(id%17), []byte(strconv.Itoa(id))); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap := q.Log().Snapshot()
	records := snap.Counter("append.records")
	fsyncs, _ := snap.Hist("sync.batch")
	if records != conns*per || fsyncs.Count == 0 || fsyncs.Count >= records {
		t.Fatalf("%d records in %d fsyncs, want %d records in fewer fsyncs", records, fsyncs.Count, conns*per)
	}
	t.Logf("%d records in %d fsyncs", records, fsyncs.Count)

	srv.Close()
	<-done
	if err := q.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	rec, err := wal.Recover(dir, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	seen := make(map[string]bool, len(rec.Items))
	for _, it := range rec.Items {
		seen[string(it.Value)] = true
	}
	for id := 0; id < conns*per; id++ {
		if !seen[strconv.Itoa(id)] {
			t.Fatalf("ACKed insert %d missing after recovery (%d items recovered)", id, len(rec.Items))
		}
	}
}
