// Applying a connection's micro-batch.
//
// A connection's reader gathers its micro-batch — every frame already
// buffered, OpBatch frames decoded into their entries, insert values
// copied out of the read buffer — into a task, applies it against the
// backend on its own goroutine, and, when the batch mutated and a WAL is
// attached, waits on WAL.Commit before it writes the replies. The reader
// performs the socket write too, so one slow client never head-of-line
// blocks another connection's responses, and per-connection FIFO is free.
//
// Nothing in this package combines across connections: the one shared
// step a combiner could make cheaper is the fsync, and the WAL's group
// commit already shares it among every reader blocked in Commit.
package server

import (
	"encoding/binary"
	"net"
	"sort"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/wire"
)

// frameOp is one gathered request frame, decoded and detached from the
// connection read buffer: insert payloads (and whole batch payloads) are
// owned copies, because the reader gathers further frames into the same
// read buffer before it applies any of them.
type frameOp struct {
	kind    wire.Kind
	arg     int64
	data    []byte            // owned; insert value or bad-batch error text
	entries []wire.BatchEntry // OpBatch only; entry Data aliases an owned copy
	trace   uint64            // non-zero on traced frames
	bad     bool              // malformed batch payload: answered StatusErr, conn stays up
}

func (op *frameOp) traced() bool { return op.trace != 0 }

// task is one connection micro-batch. A reader owns exactly one task and
// reuses it: gather, apply, write the response, reset.
type task struct {
	ops    []frameOp
	resp   respBuf
	traced []tracedReq
	nops   int // operations gathered, batch entries included

	statuses []wire.BatchEntry // scratch: per-op statuses of one batch frame
	order    []int             // scratch: apply order of one batch frame
}

func (t *task) reset() {
	t.ops = t.ops[:0]
	t.resp.reset()
	t.traced = t.traced[:0]
	t.nops = 0
}

// addFrame decodes one gathered request frame into the task. It owns the
// copy-out: f.Data aliases the connection read buffer, which the next
// wire.Read overwrites, so anything the backend or the apply pass will see
// after this call is copied here — once per insert, once per batch frame.
func (t *task) addFrame(f wire.Frame, maxOps int) {
	op := frameOp{kind: f.Kind, arg: f.Arg, trace: f.Trace}
	switch f.Kind {
	case wire.OpInsert, wire.OpPopLease, wire.OpExtend, wire.OpInsertDelay:
		// Data-carrying requests: the insert value, the pop-lease queue
		// selector, the extend TTL, the delay header + value.
		op.data = append([]byte(nil), f.Data...)
		t.nops++
	case wire.OpBatch:
		owned := append([]byte(nil), f.Data...)
		entries, err := wire.DecodeBatch(wire.Frame{Kind: f.Kind, Arg: f.Arg, Data: owned})
		switch {
		case err != nil:
			op.bad = true
			op.data = []byte(err.Error())
			t.nops++
		case len(entries) > maxOps:
			op.bad = true
			op.data = []byte("server: batch exceeds the operation cap")
			t.nops++
		default:
			op.entries = entries
			t.nops += len(entries)
		}
	default:
		t.nops++
	}
	t.ops = append(t.ops, op)
}

// apply executes every gathered frame of the task against the backend
// and builds its response buffer. Durable ACK: when the task mutated and a
// WAL is attached, one Commit covers all of its mutations, sharing its
// fsync with whichever other connections are committing. On a commit
// failure the caller must drop the connection without replying: an
// un-ACKed operation is indeterminate to the client, which is exactly what
// it is on disk.
func (s *Server) apply(t *task) error {
	metered := s.obs.set.Enabled()
	mutated := false
	for i := range t.ops {
		m := s.applyFrame(t, &t.ops[i], metered)
		mutated = mutated || m
	}
	s.bobs.runOps.ObserveN(uint64(t.nops))
	s.bobs.flushes.Inc()
	if mutated && s.cfg.WAL != nil {
		return s.cfg.WAL.Commit()
	}
	return nil
}

// applyFrame executes one gathered frame and appends its response frame
// to the task's response buffer, reporting whether the backend mutated.
// During a drain every operation is answered SHUTDOWN without touching
// the backend.
func (s *Server) applyFrame(t *task, op *frameOp, metered bool) (mutated bool) {
	resp := &t.resp
	s.obs.frames.Inc()
	if op.bad {
		s.obs.bad.Inc()
		resp.appendFrame(wire.StatusErr, 0, op.data)
		return false
	}
	if s.draining.Load() {
		s.obs.shutdownReplies.Inc()
		if op.kind == wire.OpBatch {
			t.statuses = t.statuses[:0]
			for range op.entries {
				t.statuses = append(t.statuses, wire.BatchEntry{Kind: wire.StatusShutdown})
			}
			resp.appendBatchFrame(t.statuses)
		} else {
			resp.appendFrame(wire.StatusShutdown, 0, nil)
		}
		return false
	}
	// A traced frame is timed even without metrics: its apply duration is
	// the span attribution's "structure time".
	timed := metered || (s.cfg.Flight.Enabled() && op.traced())
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if op.kind == wire.OpBatch {
		mutated = s.applyBatch(t, op)
	} else {
		st, arg, data, m := s.applyOp(op.kind, op.arg, op.data)
		mutated = m
		resp.appendFrame(st, arg, data)
	}
	if metered {
		s.obs.applyLat.Since(t0)
	}
	if s.cfg.Flight.Enabled() && op.traced() {
		s.cfg.Flight.Record(flight.KServerApply, op.trace, int64(time.Since(t0)))
	}
	return mutated
}

// applyBatch executes one OpBatch frame: inserts first, then the rest,
// each class in arrival order — within a batch the client has, by
// batching, declared the operations concurrent, so the server picks the
// order that lets a pop see every insert packed beside it. Inserts are
// additionally applied in ascending priority so the backend sees sorted
// runs. The per-op statuses land in ORIGINAL operation order.
func (s *Server) applyBatch(t *task, op *frameOp) (mutated bool) {
	t.growStatuses(len(op.entries))
	t.statuses = t.statuses[:len(op.entries)]
	t.order = t.order[:0]
	for i, e := range op.entries {
		if e.Kind == wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	sort.SliceStable(t.order, func(a, b int) bool {
		return op.entries[t.order[a]].Arg < op.entries[t.order[b]].Arg
	})
	for i, e := range op.entries {
		if e.Kind != wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	for _, i := range t.order {
		e := op.entries[i]
		st, arg, data, m := s.applyOp(e.Kind, e.Arg, e.Data)
		mutated = mutated || m
		t.statuses[i] = wire.BatchEntry{Kind: st, Arg: arg, Data: data}
	}
	s.bobs.size.ObserveN(uint64(len(op.entries)))
	t.resp.appendBatchFrame(t.statuses)
	return mutated
}

// growStatuses makes room for n statuses before applyBatch slices it.
func (t *task) growStatuses(n int) {
	if cap(t.statuses) < n {
		t.statuses = make([]wire.BatchEntry, 0, n)
	}
}

// spliceMin is the payload size above which a response value is handed to
// the vectored write as its own buffer instead of being copied into the
// accumulating segment.
const spliceMin = 4 << 10

// respBuf accumulates one task's response frames as a buffer list for a
// single vectored write (net.Buffers / writev). Frame headers and small
// payloads append to one owned segment; payloads of spliceMin bytes or
// more are spliced in by reference, so a large popped value travels from
// backend to socket without a copy. Segments are recorded as offset
// ranges (acc may reallocate while growing), materialized by
// appendBuffers at write time.
type respBuf struct {
	acc     []byte
	parts   []respPart
	accMark int // start of the still-open acc range
}

// respPart is one closed segment: an acc range, or a spliced payload.
type respPart struct {
	off, end int
	ext      []byte
}

func (r *respBuf) reset() {
	r.acc = r.acc[:0]
	r.parts = r.parts[:0]
	r.accMark = 0
}

// splice closes the open acc range and inserts v by reference.
func (r *respBuf) splice(v []byte) {
	if len(r.acc) > r.accMark {
		r.parts = append(r.parts, respPart{off: r.accMark, end: len(r.acc)})
	}
	r.parts = append(r.parts, respPart{ext: v})
	r.accMark = len(r.acc)
}

// appendFrame appends one single-op response frame.
func (r *respBuf) appendFrame(kind wire.Kind, arg int64, data []byte) {
	body := 9 + len(data)
	r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(body))
	r.acc = append(r.acc, byte(kind))
	r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(arg))
	if len(data) >= spliceMin {
		r.splice(data)
	} else {
		r.acc = append(r.acc, data...)
	}
}

// appendBatchFrame appends one StatusBatch frame carrying the per-op
// status entries in operation order.
func (r *respBuf) appendBatchFrame(entries []wire.BatchEntry) {
	body := 9
	for _, e := range entries {
		body += 13 + len(e.Data)
	}
	r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(body))
	r.acc = append(r.acc, byte(wire.StatusBatch))
	r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(len(entries)))
	for _, e := range entries {
		r.acc = append(r.acc, byte(e.Kind))
		r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(e.Arg))
		r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(len(e.Data)))
		if len(e.Data) >= spliceMin {
			r.splice(e.Data)
		} else {
			r.acc = append(r.acc, e.Data...)
		}
	}
}

// appendBuffers materializes the response as a buffer list for one
// vectored write.
func (r *respBuf) appendBuffers(dst net.Buffers) net.Buffers {
	for _, p := range r.parts {
		if p.ext != nil {
			dst = append(dst, p.ext)
		} else {
			dst = append(dst, r.acc[p.off:p.end])
		}
	}
	if len(r.acc) > r.accMark {
		dst = append(dst, r.acc[r.accMark:])
	}
	return dst
}
