package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"skipqueue/internal/server"
	"skipqueue/internal/wire"
)

// pingBadPing is one write of a Ping, a frame with the undefined kind
// 0x7f, and a second Ping: a framing error inside one micro-batch.
func pingBadPing() []byte {
	ping, _ := wire.Append(nil, wire.Frame{Kind: wire.OpPing})
	stream := append([]byte(nil), ping...)
	stream = append(stream, 0, 0, 0, 9, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0)
	return append(stream, ping...)
}

// overBudgetPops is a batch of 64 DeleteMins whose answers, over 64
// values of 20 KiB, share one reply frame larger than wire.DefaultMaxFrame.
func overBudgetPops(t testing.TB) []byte {
	entries := make([]wire.BatchEntry, 64)
	for i := range entries {
		entries[i] = wire.BatchEntry{Kind: wire.OpDeleteMin}
	}
	req, err := wire.AppendBatch(nil, entries, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// readAll reads nc to its end under a deadline.
func readAll(t *testing.T, nc net.Conn) ([]byte, error) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	return io.ReadAll(nc)
}

// TestFramingErrorInBatch: a framing error behind well-framed frames of
// the same micro-batch answers the frames before it, then sends a parting
// ERR and closes — the frames after it are never answered, so no reply
// lands on the wrong call.
func TestFramingErrorInBatch(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	nc := rawConn(t, addr)
	if _, err := nc.Write(pingBadPing()); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(t, nc)
	if err != nil {
		t.Fatalf("connection not closed after the bad frame: %v", err)
	}
	var kinds []wire.Kind
	r := bytes.NewReader(out)
	for r.Len() > 0 {
		f, _, err := wire.Read(r, nil, 0)
		if err != nil {
			t.Fatalf("reply stream: %v", err)
		}
		kinds = append(kinds, f.Kind)
	}
	if len(kinds) != 2 || kinds[0] != wire.StatusOK || kinds[1] != wire.StatusErr {
		t.Fatalf("replies = %v, want [OK ERR]", kinds)
	}
}

// TestReplyOverBudget: a batch whose answers exceed the frame budget is
// never written; the server drops the connection unanswered, leaving the
// operations indeterminate as a failed commit does.
func TestReplyOverBudget(t *testing.T) {
	_, backend, addr := startServer(t, server.Config{})
	for i := 0; i < 64; i++ {
		backend.Push(int64(i), make([]byte, 20<<10))
	}
	nc := rawConn(t, addr)
	if _, err := nc.Write(overBudgetPops(t)); err != nil {
		t.Fatal(err)
	}
	out, err := readAll(t, nc)
	if err != nil || len(out) != 0 {
		t.Fatalf("read %d bytes, err %v; want EOF and no bytes", len(out), err)
	}
}

// FuzzServerStream writes arbitrary bytes to a served connection. The
// server must not panic; every reply byte must parse as response frames
// within wire.DefaultMaxFrame; there must be one reply per well-framed
// request frame before the first framing error, plus one trailing ERR if
// there was one; and the server must close the connection after it.
//
// Values never exceed the input, so a reply can pass the frame budget
// only in a batch of Peeks or DeleteMins over large values. From such a
// batch on the server may close unanswered, and only a prefix of the
// replies is checked.
func FuzzServerStream(f *testing.F) {
	f.Add(pingBadPing())
	var fill []byte
	for i := 0; i < 64; i++ {
		fill, _ = wire.Append(fill, wire.Frame{Kind: wire.OpInsert, Arg: int64(i), Data: make([]byte, 20<<10)})
	}
	f.Add(append(fill, overBudgetPops(f)...))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3}) // short frame
	f.Add([]byte{0xff, 0, 0, 0})       // oversized length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, addr := startServer(t, server.Config{})
		stream, want, bad, exact := expectReplies(data)
		nc := rawConn(t, addr)
		go func() {
			nc.Write(stream)
			if !bad {
				// Let the server see the end of the stream; after a
				// framing error it must close by itself.
				nc.(*net.TCPConn).CloseWrite()
			}
		}()
		out, err := readAll(t, nc)
		if err != nil && (exact || !errors.Is(err, syscall.ECONNRESET)) {
			t.Fatalf("reading replies: %v", err)
		}
		var kinds []wire.Kind
		r := bytes.NewReader(out)
		for r.Len() > 0 {
			f, _, err := wire.Read(r, nil, wire.DefaultMaxFrame)
			if err != nil {
				t.Fatalf("reply %d does not parse: %v", len(kinds), err)
			}
			if !f.Kind.IsResponse() || f.Traced() {
				t.Fatalf("reply %d has kind %v traced=%v", len(kinds), f.Kind, f.Traced())
			}
			if f.Kind == wire.StatusBatch {
				if _, err := wire.DecodeBatch(f); err != nil {
					t.Fatalf("reply %d: %v", len(kinds), err)
				}
			}
			kinds = append(kinds, f.Kind)
		}
		if bad {
			want++
		}
		if len(kinds) > want || (exact && len(kinds) != want) {
			t.Fatalf("%d replies, want %d (framing error %v, exact %v)", len(kinds), want, bad, exact)
		}
		if bad && kinds[want-1] != wire.StatusErr {
			t.Fatalf("last reply %v, want the parting ERR", kinds[len(kinds)-1])
		}
	})
}

// expectReplies walks data as the server frames it. It returns the prefix
// the server reads, up to and including the first framing error (bad), and
// the number of well-framed request frames in it. The count is exact
// unless a batch's answers might exceed the frame budget; that batch then
// ends the prefix, and bad is false.
func expectReplies(data []byte) (stream []byte, frames int, bad, exact bool) {
	maxVal := 0 // the largest value the frames so far could have stored
	off := 0
	for len(data)-off >= 4 {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n < 9 || n > wire.DefaultMaxFrame {
			return data[:off+4], frames, true, true
		}
		if len(data)-off < 4+n {
			break // a torn tail: the server waits for the rest
		}
		f, err := wire.Decode(data[off+4 : off+4+n])
		off += 4 + n
		if err != nil {
			return data[:off], frames, true, true
		}
		frames++
		maxVal = max(maxVal, len(f.Data))
		// An entry's answer is at most a value or a short error text.
		if f.Kind == wire.OpBatch && 9+min(f.Arg, wire.MaxBatchOps)*int64(13+max(maxVal, 64)) > wire.DefaultMaxFrame {
			return data[:off], frames, false, false
		}
	}
	return data, frames, false, true
}
