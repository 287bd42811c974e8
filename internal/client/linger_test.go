package client_test

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipqueue/internal/client"
	"skipqueue/internal/wire"
)

// frameSeen is one request frame as a frameServer received it.
type frameSeen struct {
	conn int // accept order; 0 is the connection Dial made
	kind wire.Kind
	ops  int // entries of an OpBatch, 1 otherwise
}

// frameServer is a scripted stand-in for pqd that records which accepted
// connection carried each request frame. reply builds the answer to the
// n-th frame received (0-based, across connections); a nil answer closes
// that connection unanswered.
type frameServer struct {
	ln     net.Listener
	frames chan frameSeen
	reply  func(n int, f wire.Frame) []byte
	count  atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

// okReply answers f as a server that applied it: StatusOK, or a
// StatusBatch of one StatusOK per entry.
func okReply(_ int, f wire.Frame) []byte {
	if f.Kind != wire.OpBatch {
		out, _ := wire.Append(nil, wire.Frame{Kind: wire.StatusOK})
		return out
	}
	entries := make([]wire.BatchEntry, f.Arg)
	for i := range entries {
		entries[i].Kind = wire.StatusOK
	}
	out, _ := wire.AppendBatch(nil, entries, 0, 0)
	return out
}

func startFrameServer(t *testing.T, reply func(n int, f wire.Frame) []byte) (*frameServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameServer{ln: ln, frames: make(chan frameSeen, 1024), reply: reply}
	go s.accept()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, nc := range s.conns {
			nc.Close()
		}
	})
	return s, ln.Addr().String()
}

func (s *frameServer) accept() {
	for id := 0; ; id++ {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns = append(s.conns, nc)
		s.mu.Unlock()
		go s.serve(id, nc)
	}
}

func (s *frameServer) serve(id int, nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var buf []byte
	for {
		f, rb, err := wire.Read(br, buf, 0)
		buf = rb
		if err != nil {
			return
		}
		seen := frameSeen{conn: id, kind: f.Kind, ops: 1}
		if f.Kind == wire.OpBatch {
			seen.ops = int(f.Arg)
		}
		s.frames <- seen
		out := s.reply(int(s.count.Add(1)-1), f)
		if out == nil {
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// next returns the next recorded frame, failing the test after a second.
func (s *frameServer) next(t *testing.T) frameSeen {
	t.Helper()
	select {
	case f := <-s.frames:
		return f
	case <-time.After(time.Second):
		t.Fatal("no frame reached the server")
		return frameSeen{}
	}
}

// drained returns every frame recorded so far.
func (s *frameServer) drained() []frameSeen {
	var out []frameSeen
	for {
		select {
		case f := <-s.frames:
			out = append(out, f)
		default:
			return out
		}
	}
}

// TestLingerOneFramePerWindow: with BatchLinger the async Inserts submitted
// inside one linger window reach the server as one OpBatch frame on one
// connection, and the next window's frame arrives on the other one.
func TestLingerOneFramePerWindow(t *testing.T) {
	s, addr := startFrameServer(t, okReply)
	cl, err := client.Dial(client.Config{
		Addr: addr, Conns: 2, BatchMax: 64, BatchLinger: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const perWindow = 16
	for w := 0; w < 4; w++ {
		ps := make([]*client.Pending, perWindow)
		for i := range ps {
			if ps[i], err = cl.InsertAsync(int64(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range ps {
			if _, err := p.Wait(); err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
		}
		want := frameSeen{conn: w % 2, kind: wire.OpBatch, ops: perWindow}
		if got := s.next(t); got != want {
			t.Fatalf("window %d: frame %+v, want %+v", w, got, want)
		}
	}
	if extra := s.drained(); len(extra) > 0 {
		t.Fatalf("frames beyond one per window: %+v", extra)
	}
}

// TestNoLingerRoundRobin: without BatchLinger consecutive calls alternate
// between the pool's connections, batching or not.
func TestNoLingerRoundRobin(t *testing.T) {
	s, addr := startFrameServer(t, okReply)
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 2, BatchMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 8; i++ {
		if err := cl.Insert(int64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		// The first call after Dial goes to slot 1, the second back to the
		// eagerly dialed slot 0.
		want := frameSeen{conn: (i + 1) % 2, kind: wire.OpInsert, ops: 1}
		if got := s.next(t); got != want {
			t.Fatalf("call %d: frame %+v, want %+v", i, got, want)
		}
	}
}

// TestLingerDeadConnRedials: with BatchLinger, the server drops the pool's
// current connection in the middle of a stream. Every call completes, OK or
// ErrConn, within OpTimeout; the dead slot is redialed when the pool comes
// back to it, and rotation carries on across the surviving connections.
func TestLingerDeadConnRedials(t *testing.T) {
	const killAt = 3
	s, addr := startFrameServer(t, func(n int, f wire.Frame) []byte {
		if n == killAt {
			return nil
		}
		return okReply(n, f)
	})
	cl, err := client.Dial(client.Config{
		Addr: addr, Conns: 2, BatchMax: 64, BatchLinger: time.Millisecond,
		OpTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var ps []*client.Pending
	for i := 0; i < 160; i++ {
		p, err := cl.InsertAsync(int64(i), []byte("v"))
		switch {
		case err == nil:
			ps = append(ps, p)
		case !errors.Is(err, client.ErrConn):
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%8 == 7 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	var ok, failed int
	for i, p := range ps {
		_, err := p.Wait()
		switch {
		case err == nil:
			ok++
		case errors.Is(err, client.ErrConn):
			failed++
		default:
			t.Fatalf("call %d: %v, want OK or ErrConn", i, err)
		}
	}
	if failed == 0 {
		t.Fatal("no call saw the dropped connection")
	}

	frames := s.drained()
	if len(frames) <= killAt {
		t.Fatalf("%d frames reached the server", len(frames))
	}
	after := map[int]bool{}
	for _, f := range frames[killAt+1:] {
		after[f.conn] = true
	}
	if !after[2] || len(after) < 2 {
		t.Fatalf("frames after the drop arrived on connections %v; want the redialed 2 and another", after)
	}
	t.Logf("%d frames, %d calls OK, %d ErrConn, %d submits refused", len(frames), ok, failed, 160-len(ps))
}

// TestBatchReplyMalformed: a StatusBatch answer with the wrong entry count
// fails every call of the batch with ErrConn, and a torn last entry fails
// only the call it was for; none of them waits out OpTimeout.
func TestBatchReplyMalformed(t *testing.T) {
	const ops = 4
	entry, _ := wire.AppendBatchEntry(nil, wire.BatchEntry{Kind: wire.StatusOK})
	var payload []byte
	for i := 0; i < ops; i++ {
		payload = append(payload, entry...)
	}
	for _, tc := range []struct {
		name   string
		arg    int64
		data   []byte
		wantOK int
	}{
		{"short count", ops - 1, payload[:(ops-1)*len(entry)], 0},
		{"torn last entry", ops, payload[:len(payload)-1], ops - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startFrameServer(t, func(_ int, f wire.Frame) []byte {
				out, _ := wire.Append(nil, wire.Frame{Kind: wire.StatusBatch, Arg: tc.arg, Data: tc.data})
				return out
			})
			cl, err := client.Dial(client.Config{
				Addr: addr, Conns: 1, BatchMax: 64, BatchLinger: 50 * time.Millisecond,
				OpTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ps := make([]*client.Pending, ops)
			for i := range ps {
				if ps[i], err = cl.InsertAsync(int64(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Now()
			for i, p := range ps {
				_, err := p.Wait()
				wantErr := i >= tc.wantOK
				if (err != nil) != wantErr || (wantErr && !errors.Is(err, client.ErrConn)) {
					t.Fatalf("call %d: err = %v, want error %v (ErrConn)", i, err, wantErr)
				}
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("calls took %v to fail", d)
			}
		})
	}
}
