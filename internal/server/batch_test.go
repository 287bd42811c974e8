package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/server"
	"skipqueue/internal/wire"
)

// rawConn dials the server for frame-level tests that need exact control
// over what goes on the wire.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func readFrame(t *testing.T, nc net.Conn) wire.Frame {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := wire.Read(nc, nil, 0)
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	return f
}

// TestBatchApply drives one OpBatch with interleaved ops through a raw
// connection: one StatusBatch comes back with per-op statuses in
// OPERATION order, and the pops see the inserts packed beside them
// (pushes apply before pops within a batch).
func TestBatchApply(t *testing.T) {
	srv, backend, addr := startServer(t, server.Config{})
	nc := rawConn(t, addr)

	req, err := wire.AppendBatch(nil, []wire.BatchEntry{
		{Kind: wire.OpDeleteMin},                             // 0: sees insert below — pushes first
		{Kind: wire.OpInsert, Arg: 9, Data: []byte("nine")},  // 1
		{Kind: wire.OpInsert, Arg: 3, Data: []byte("three")}, // 2
		{Kind: wire.OpDeleteMin},                             // 3
		{Kind: wire.OpLen},                                   // 4
		{Kind: wire.OpPing},                                  // 5
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	f := readFrame(t, nc)
	if f.Kind != wire.StatusBatch || f.Arg != 6 {
		t.Fatalf("response = %v/%d, want StatusBatch/6", f.Kind, f.Arg)
	}
	entries, err := wire.DecodeBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	// Both pops hit a queue already holding both inserts, so they drain
	// 3 then 9 regardless of their position in the batch.
	if entries[0].Kind != wire.StatusOK || entries[0].Arg != 3 || string(entries[0].Data) != "three" {
		t.Fatalf("entry 0 = %v/%d/%q, want OK/3/three", entries[0].Kind, entries[0].Arg, entries[0].Data)
	}
	if entries[1].Kind != wire.StatusOK || entries[2].Kind != wire.StatusOK {
		t.Fatalf("insert acks = %v, %v; want OK, OK", entries[1].Kind, entries[2].Kind)
	}
	if entries[3].Kind != wire.StatusOK || entries[3].Arg != 9 || string(entries[3].Data) != "nine" {
		t.Fatalf("entry 3 = %v/%d/%q, want OK/9/nine", entries[3].Kind, entries[3].Arg, entries[3].Data)
	}
	if entries[4].Kind != wire.StatusOK || entries[4].Arg != 0 {
		t.Fatalf("len = %v/%d, want OK/0", entries[4].Kind, entries[4].Arg)
	}
	if entries[5].Kind != wire.StatusOK {
		t.Fatalf("ping = %v, want OK", entries[5].Kind)
	}
	if backend.Len() != 0 {
		t.Fatalf("backend.Len = %d after drained batch, want 0", backend.Len())
	}
	if got := srv.BatchSnapshot().Counter("coalesce.flushes"); got == 0 {
		t.Fatal("coalesce.flushes = 0 after a batch apply")
	}
	if h, ok := srv.BatchSnapshot().Hist("batch.size"); !ok || h.Count == 0 {
		t.Fatal("batch.size histogram empty after a batch apply")
	}
}

// TestBatchMalformed: a well-framed OpBatch with a lying payload is a
// semantic error — StatusErr — and the connection stays usable.
func TestBatchMalformed(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	nc := rawConn(t, addr)

	// Claims 3 entries, carries garbage.
	bad, err := wire.Append(nil, wire.Frame{Kind: wire.OpBatch, Arg: 3, Data: []byte{0xde, 0xad}})
	if err != nil {
		t.Fatal(err)
	}
	ping, err := wire.Append(nil, wire.Frame{Kind: wire.OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(append(bad, ping...)); err != nil {
		t.Fatal(err)
	}
	if f := readFrame(t, nc); f.Kind != wire.StatusErr {
		t.Fatalf("malformed batch answered %v, want ERR", f.Kind)
	}
	if f := readFrame(t, nc); f.Kind != wire.StatusOK {
		t.Fatalf("ping after bad batch answered %v, want OK — conn should stay usable", f.Kind)
	}
}

// TestBatchOverCap: a batch over the server's 1024-operation cap is
// refused with StatusErr without touching the backend.
func TestBatchOverCap(t *testing.T) {
	_, backend, addr := startServer(t, server.Config{})
	nc := rawConn(t, addr)

	entries := make([]wire.BatchEntry, 1025)
	for i := range entries {
		entries[i] = wire.BatchEntry{Kind: wire.OpInsert, Arg: int64(i)}
	}
	req, err := wire.AppendBatch(nil, entries, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	if f := readFrame(t, nc); f.Kind != wire.StatusErr {
		t.Fatalf("oversized batch answered %v, want ERR", f.Kind)
	}
	if backend.Len() != 0 {
		t.Fatalf("backend.Len = %d, want 0 — refused batch must not apply", backend.Len())
	}
}

// TestBatchDuringDrain: a batch caught by the drain window is answered
// with a StatusBatch of per-op SHUTDOWN entries — the frame-level 1:1
// mapping survives the drain.
func TestBatchDuringDrain(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{DrainWindow: 300 * time.Millisecond})
	nc := rawConn(t, addr)

	// Prime the connection so the handler exists before the drain starts.
	ping, _ := wire.Append(nil, wire.Frame{Kind: wire.OpPing})
	if _, err := nc.Write(ping); err != nil {
		t.Fatal(err)
	}
	readFrame(t, nc)

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain flag flip

	req, err := wire.AppendBatch(nil, []wire.BatchEntry{
		{Kind: wire.OpInsert, Arg: 1, Data: []byte("late")},
		{Kind: wire.OpDeleteMin},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	f := readFrame(t, nc)
	if f.Kind != wire.StatusBatch || f.Arg != 2 {
		t.Fatalf("drain answered %v/%d, want StatusBatch/2", f.Kind, f.Arg)
	}
	entries, err := wire.DecodeBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.Kind != wire.StatusShutdown {
			t.Fatalf("drain entry %d = %v, want SHUTDOWN", i, e.Kind)
		}
	}
	<-done
}

// countingWAL is a backend with a commit barrier that counts Commit calls
// — the proof that a whole batch rides one durability barrier — and fails
// each one with commitErr, if set.
type countingWAL struct {
	*skipqueue.PQ[[]byte]
	commits   atomic.Int64
	syncs     atomic.Int64
	commitErr error
}

func newCountingWAL(commitErr error) *countingWAL {
	return &countingWAL{PQ: skipqueue.NewPQ[[]byte](), commitErr: commitErr}
}

func (w *countingWAL) Commit() error { w.commits.Add(1); return w.commitErr }
func (w *countingWAL) Sync() error   { w.syncs.Add(1); return nil }

// TestBatchOneCommit: one applied batch of many mutations costs exactly
// one WAL Commit, and a batch with no mutations costs none.
func TestBatchOneCommit(t *testing.T) {
	wal := newCountingWAL(nil)
	_, addr := serve(t, server.Config{Backend: wal})
	nc := rawConn(t, addr)

	entries := make([]wire.BatchEntry, 64)
	for i := range entries {
		entries[i] = wire.BatchEntry{Kind: wire.OpInsert, Arg: int64(i), Data: []byte{byte(i)}}
	}
	req, err := wire.AppendBatch(nil, entries, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	readFrame(t, nc)
	if got := wal.commits.Load(); got != 1 {
		t.Fatalf("64-insert batch cost %d Commits, want exactly 1", got)
	}

	// A read-only batch must not pay the barrier at all.
	req, err = wire.AppendBatch(nil, []wire.BatchEntry{
		{Kind: wire.OpPeek}, {Kind: wire.OpLen}, {Kind: wire.OpPing},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	readFrame(t, nc)
	if got := wal.commits.Load(); got != 1 {
		t.Fatalf("read-only batch changed Commit count to %d, want still 1", got)
	}
}

// TestCommitFailureDropsConn: when the durability barrier fails, the
// operations it covered are applied but not durable, so the server must
// not ACK them — it closes the connection without writing one reply byte,
// for a single-op frame and for an OpBatch alike.
func TestCommitFailureDropsConn(t *testing.T) {
	single, err := wire.Append(nil, wire.Frame{Kind: wire.OpInsert, Arg: 1, Data: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wire.AppendBatch(nil, []wire.BatchEntry{
		{Kind: wire.OpInsert, Arg: 2, Data: []byte("w")},
		{Kind: wire.OpLen},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string][]byte{"single-op": single, "batch": batch} {
		t.Run(name, func(t *testing.T) {
			wal := newCountingWAL(errors.New("disk gone"))
			_, addr := serve(t, server.Config{Backend: wal})
			nc := rawConn(t, addr)
			if _, err := nc.Write(req); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(nc)
			if err != nil || len(got) != 0 {
				t.Fatalf("read %d bytes, err %v; want a clean close with no reply", len(got), err)
			}
			if n := wal.commits.Load(); n != 1 {
				t.Fatalf("Commit ran %d times, want 1", n)
			}
		})
	}
}

// TestVectoredWrite: a large popped value comes back intact inside a
// batch reply.
func TestVectoredWrite(t *testing.T) {
	_, backend, addr := startServer(t, server.Config{})
	big := bytes.Repeat([]byte{0xab}, 32<<10)
	backend.Push(5, big)

	nc := rawConn(t, addr)
	req, err := wire.AppendBatch(nil, []wire.BatchEntry{
		{Kind: wire.OpDeleteMin},
		{Kind: wire.OpLen},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	f := readFrame(t, nc)
	entries, err := wire.DecodeBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Kind != wire.StatusOK || entries[0].Arg != 5 || !bytes.Equal(entries[0].Data, big) {
		t.Fatalf("big pop = %v/%d/%d bytes, want OK/5/%d bytes intact",
			entries[0].Kind, entries[0].Arg, len(entries[0].Data), len(big))
	}
}

// TestBatchedClientRoundTrip: the transparent client batcher against the
// batched server — many goroutines of inserts and pops over one
// connection, everything conserved, and the server's batch probes show
// real coalescing happened.
func TestBatchedClientRoundTrip(t *testing.T) {
	srv, backend, addr := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{
		Addr:        addr,
		BatchMax:    32,
		BatchLinger: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, per = 8, 200
	var wg sync.WaitGroup
	var popped atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := cl.Insert(int64(w*per+i), []byte{byte(w), byte(i)}); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if i%2 == 1 {
					if _, _, found, err := cl.DeleteMin(); err != nil {
						t.Errorf("DeleteMin: %v", err)
						return
					} else if found {
						popped.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := int64(workers*per) - popped.Load()
	if got := int64(backend.Len()); got != want {
		t.Fatalf("backend.Len = %d, want %d (inserted %d, popped %d)",
			got, want, workers*per, popped.Load())
	}
	if h, ok := srv.BatchSnapshot().Hist("batch.size"); !ok || h.Count == 0 {
		t.Fatal("batch.size histogram empty — the client batcher never coalesced")
	}
}
