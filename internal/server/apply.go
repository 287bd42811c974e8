// Applying a connection's micro-batch.
//
// A connection's reader applies each request frame the moment wire.Read
// decodes it — before the next read reuses the read buffer — and appends
// the reply to the micro-batch's one output buffer through wire's encoder.
// When the batch mutated a durable backend it waits on one Commit before
// it writes the replies. The reader performs the socket write too, so one
// slow client never head-of-line blocks another connection's responses,
// and per-connection FIFO is free.
//
// Nothing in this package combines across connections: the one shared
// step a combiner could make cheaper is the fsync, and the WAL's group
// commit already shares it among every reader blocked in Commit.
package server

import (
	"errors"
	"sort"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/wire"
)

// maxBatchOps is the operational cap on operations per OpBatch frame; a
// larger batch is answered StatusErr without touching the backend. The
// protocol ceiling is wire.MaxBatchOps.
const maxBatchOps = 1024

var errBatchCap = errors.New("server: batch exceeds the operation cap")

// task is one connection micro-batch. A reader owns exactly one task and
// reuses it: apply frames as they are read, commit, write, reset.
type task struct {
	out     []byte // the encoded replies, written in one write
	traced  []tracedReq
	frames  int          // request frames applied
	ops     int          // operations applied, batch entries included
	kinds   [opKinds]int // operations applied, by kind
	mutated bool         // the backend changed: the replies wait for a Commit

	statuses []wire.BatchEntry // scratch: per-op statuses of one batch frame
	order    []int             // scratch: apply order of one batch frame
}

func (t *task) reset() {
	t.out = t.out[:0]
	t.traced = t.traced[:0]
	t.frames, t.ops, t.kinds, t.mutated = 0, 0, [opKinds]int{}, false
}

// count adds a micro-batch's tallies to the probes, each once per batch.
func (s *Server) count(t *task) {
	if t.frames == 0 {
		return
	}
	s.obs.frames.Add(uint64(t.frames))
	for k, n := range t.kinds {
		s.obs.kinds[k].Add(uint64(n))
	}
	s.obs.batch.ObserveN(uint64(t.frames))
	s.bobs.runOps.ObserveN(uint64(t.ops))
	s.bobs.flushes.Inc()
}

// reply appends one single-op reply frame to the task's output.
func (t *task) reply(kind wire.Kind, arg int64, data []byte) (err error) {
	t.out, err = wire.Append(t.out, wire.Frame{Kind: kind, Arg: arg, Data: data})
	return err
}

// replyBatch appends one StatusBatch reply carrying t.statuses in
// operation order.
func (t *task) replyBatch() (err error) {
	t.out, err = wire.AppendBatch(t.out, t.statuses, 0, 0)
	return err
}

// applyFrame applies one request frame and appends its reply to the
// task's output. f.Data aliases the connection read buffer, which the
// next read overwrites, so the frame is done with when this returns. The
// error is non-nil only when wire cannot encode the reply (a reply over
// the frame budget); the caller then drops the connection unanswered.
// During a drain every operation is answered SHUTDOWN without touching
// the backend.
func (s *Server) applyFrame(t *task, f wire.Frame) error {
	t.frames++
	var entries []wire.BatchEntry
	if f.Kind == wire.OpBatch {
		var err error
		entries, err = wire.DecodeBatch(f)
		if err == nil && len(entries) > maxBatchOps {
			err = errBatchCap
		}
		if err != nil {
			// A malformed batch is a semantic error on a well-framed
			// frame: answered StatusErr, the connection stays up.
			s.obs.bad.Inc()
			t.ops++
			return t.reply(wire.StatusErr, 0, []byte(err.Error()))
		}
		t.ops += len(entries)
	} else {
		t.ops++
	}
	if s.draining.Load() {
		s.obs.shutdownReplies.Inc()
		if entries == nil {
			return t.reply(wire.StatusShutdown, 0, nil)
		}
		t.statuses = t.statuses[:0]
		for range entries {
			t.statuses = append(t.statuses, wire.BatchEntry{Kind: wire.StatusShutdown})
		}
		return t.replyBatch()
	}
	t0 := time.Now()
	var err error
	if entries != nil {
		err = s.applyBatch(t, entries)
	} else {
		st, arg, data, m := s.applyOp(t, f.Kind, f.Arg, f.Data)
		t.mutated = t.mutated || m
		err = t.reply(st, arg, data)
	}
	d := time.Since(t0)
	s.obs.applyLat.Observe(d)
	// A traced frame's apply duration is the span attribution's
	// "structure time".
	if s.cfg.Flight.Enabled() && f.Traced() {
		s.cfg.Flight.Record(flight.KServerApply, f.Trace, int64(d))
	}
	return err
}

// applyBatch executes one OpBatch frame: inserts first, then the rest,
// each class in arrival order — within a batch the client has, by
// batching, declared the operations concurrent, so the server picks the
// order that lets a pop see every insert packed beside it. Inserts are
// additionally applied in ascending priority so the backend sees sorted
// runs. The per-op statuses land in ORIGINAL operation order.
func (s *Server) applyBatch(t *task, entries []wire.BatchEntry) error {
	if cap(t.statuses) < len(entries) {
		t.statuses = make([]wire.BatchEntry, len(entries))
	}
	t.statuses = t.statuses[:len(entries)]
	t.order = t.order[:0]
	for i, e := range entries {
		if e.Kind == wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	sort.SliceStable(t.order, func(a, b int) bool {
		return entries[t.order[a]].Arg < entries[t.order[b]].Arg
	})
	for i, e := range entries {
		if e.Kind != wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	for _, i := range t.order {
		e := entries[i]
		st, arg, data, m := s.applyOp(t, e.Kind, e.Arg, e.Data)
		t.mutated = t.mutated || m
		t.statuses[i] = wire.BatchEntry{Kind: st, Arg: arg, Data: data}
	}
	s.bobs.size.ObserveN(uint64(len(entries)))
	return t.replyBatch()
}
