// Package server implements pqd's network front end: a TCP server that
// exposes one priority-queue backend over the internal/wire frame protocol.
//
// The design follows the lesson of the combining/elimination literature
// (Calciu et al.): under contention, the win is in amortizing the expensive
// step over many operations. Here the expensive steps are syscalls and
// wakeups, and the amortizer is per-connection micro-batching — every frame
// that has already arrived in a connection's read buffer is applied to the
// backend in one tight loop and answered with a single write, so one
// syscall's worth of requests costs one syscall's worth of replies.
//
// Pipelining is order-based: a connection's responses are written in
// exactly the order its requests arrived, so clients need no request IDs.
//
// Backpressure has two stages. A connection beyond Config.MaxConns is
// answered with one BUSY frame and closed (a reject the client can retry
// against another moment or another server). Within a connection,
// Config.MaxInflight bounds how many frames are applied before the
// accumulated replies are flushed, so a client that pipelines without
// reading cannot make the server buffer unbounded response bytes; the
// server simply stops reading — TCP flow control pushes back the rest.
//
// Shutdown drains rather than drops: the listener closes, frames already
// read keep their normal replies, every frame arriving during the drain
// window is answered with SHUTDOWN, and only then do connections close.
package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/lease"
	"skipqueue/internal/multiset"
	"skipqueue/internal/obs"
	"skipqueue/internal/wire"
)

// Durability is the commit barrier a Backend may implement (*wal.Queue
// does, and so does a *lease.Table, forwarding to its backend). Commit is
// the ACK barrier: it returns once every operation applied before the
// call is durable (or immediately, in the WAL's async mode). Sync forces
// durability regardless of mode — the drain path's final barrier.
type Durability interface {
	Commit() error
	Sync() error
}

// Defaults for the zero Config fields.
const (
	DefaultMaxConns    = 1024
	DefaultMaxInflight = 128
	DefaultDrainWindow = 250 * time.Millisecond
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server. Backend is required; zero values elsewhere
// select the defaults above.
type Config struct {
	// Backend is the queue served. Required. Every root-package []byte
	// multiset queue (skipqueue.PQ, GlobalHeapPQ, ShardedPQ, ...) is one;
	// the server calls it from one goroutine per connection. A value
	// passed to Push is a copy out of the read buffer that the backend
	// owns, except on a *lease.Table, which makes that copy itself.
	// A Backend that implements Durability makes ACKs durable: a mutating
	// micro-batch waits for one Commit before its replies, so one
	// group-commit fsync covers it. A *lease.Table enables the lease
	// opcodes (otherwise answered StatusErr), and Shutdown nacks its
	// leases back before the final Sync.
	Backend multiset.Queue[[]byte]
	// MaxConns caps concurrent connections; further connections receive
	// one BUSY frame and are closed.
	MaxConns int
	// MaxInflight caps frames applied per connection between response
	// flushes (the pipelining window).
	MaxInflight int
	// DrainWindow is how long Shutdown keeps answering late frames with
	// SHUTDOWN before closing connections.
	DrainWindow time.Duration
	// Flight, if non-nil, records per-request spans for traced frames
	// (flight.KServerRead/KServerApply/KServerFlush keyed by the frame's
	// trace ID), batch boundaries (flight.KServerBatch), and anomaly dumps
	// on BUSY rejects, SLO breaches, and drain start. Nil costs one nil
	// check per site.
	Flight *flight.Recorder
	// SLO, if positive, is the per-frame server-side latency budget: a
	// traced frame whose read-to-flush span exceeds it triggers an anomaly
	// capture (flight.KSLOBreach, arg = the span in nanoseconds). Only
	// meaningful together with Flight.
	SLO time.Duration
}

// probes are the server's observability hooks, set "skipqueue.server"
// (docs/OBSERVABILITY.md). The server always counts.
type probes struct {
	set *obs.Set

	frames *obs.Counter          // request frames received
	kinds  [opKinds]*obs.Counter // operations by kind, batch entries included
	bad    *obs.Counter          // malformed or non-request frames

	accepted *obs.Counter // connections admitted
	closed   *obs.Counter // connections finished
	rejects  *obs.Counter // backpressure: connections refused with BUSY
	stalls   *obs.Counter // backpressure: batches cut at MaxInflight

	shutdownReplies *obs.Counter // frames answered SHUTDOWN during drain
	drainNs         *obs.Counter // total Shutdown drain time, ns
	drainNacked     *obs.Counter // leases nacked back by the drain path

	batch    *obs.Hist // frames per response flush
	applyLat *obs.Hist // backend apply latency per frame
}

func newProbes() probes {
	set := obs.NewSet("skipqueue.server")
	return probes{
		set:             set,
		frames:          set.Counter("frames"),
		kinds:           kindCounters(set),
		bad:             set.Counter("frames.bad"),
		accepted:        set.Counter("conns.accepted"),
		closed:          set.Counter("conns.closed"),
		rejects:         set.Counter("backpressure.conn_rejects"),
		stalls:          set.Counter("backpressure.inflight_stalls"),
		shutdownReplies: set.Counter("drain.shutdown_replies"),
		drainNs:         set.Counter("drain.ns"),
		drainNacked:     set.Counter("drain.leases_nacked"),
		batch:           set.Values("batch.frames"),
		applyLat:        set.Durations("frame.apply"),
	}
}

// opKinds sizes the per-kind tallies: request kinds run up to
// wire.OpInsertDelay.
const opKinds = int(wire.OpInsertDelay) + 1

// kindCounters registers "frames.<op>" for every request kind an
// operation can carry (frames.insert … frames.insertdelay), indexed by
// kind; OpBatch, a container, has none.
func kindCounters(set *obs.Set) (c [opKinds]*obs.Counter) {
	for k := wire.OpInsert; k <= wire.OpInsertDelay; k++ {
		if k != wire.OpBatch {
			c[k] = set.Counter("frames." + strings.ToLower(k.String()))
		}
	}
	return c
}

// batchProbes are the batched-data-plane hooks, set "skipqueue.batch".
type batchProbes struct {
	set     *obs.Set
	size    *obs.Hist    // batch.size: operations per OpBatch frame
	flushes *obs.Counter // coalesce.flushes: connection micro-batches applied
	runOps  *obs.Hist    // coalesce.ops: operations per connection micro-batch
}

func newBatchProbes() batchProbes {
	set := obs.NewSet("skipqueue.batch")
	return batchProbes{
		set:     set,
		size:    set.Values("batch.size"),
		flushes: set.Counter("coalesce.flushes"),
		runOps:  set.Values("coalesce.ops"),
	}
}

// Server serves one Backend over the wire protocol. Construct with New.
type Server struct {
	cfg   Config
	dur   Durability   // Backend's commit barrier, nil if it has none
	lease *lease.Table // Backend as a lease table, nil if it is not one
	obs   probes
	bobs  batchProbes

	draining atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	connWG sync.WaitGroup
}

// New returns an unstarted server; call Serve with a listener.
// It panics if cfg.Backend is nil — that is a programming error, not a
// runtime condition.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: Config.Backend is nil")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = DefaultDrainWindow
	}
	s := &Server{
		cfg:   cfg,
		obs:   newProbes(),
		bobs:  newBatchProbes(),
		conns: map[net.Conn]struct{}{},
	}
	s.dur, _ = cfg.Backend.(Durability)
	s.lease, _ = cfg.Backend.(*lease.Table)
	return s
}

// Snapshot reads the server's probes, set "skipqueue.server".
func (s *Server) Snapshot() obs.Snapshot { return s.obs.set.Snapshot() }

// BatchSnapshot reads the batched-data-plane probes, set "skipqueue.batch".
func (s *Server) BatchSnapshot() obs.Snapshot { return s.bobs.set.Snapshot() }

// Flight returns the server's flight recorder (nil without Config.Flight).
func (s *Server) Flight() *flight.Recorder { return s.cfg.Flight }

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown that is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		s.admit(nc)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// admit registers the connection and starts its handler, or refuses it with
// a single status frame when the server is draining or at MaxConns.
func (s *Server) admit(nc net.Conn) {
	refuse := wire.KindInvalid
	s.mu.Lock()
	nconns := len(s.conns)
	switch {
	case s.draining.Load() || s.closed:
		refuse = wire.StatusShutdown
	case nconns >= s.cfg.MaxConns:
		refuse = wire.StatusBusy
	default:
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
	}
	s.mu.Unlock()

	if refuse != wire.KindInvalid {
		s.obs.rejects.Inc()
		if refuse == wire.StatusBusy {
			s.cfg.Flight.Anomaly(flight.KBusyReject, 0, int64(nconns))
		}
		go func() {
			nc.SetWriteDeadline(time.Now().Add(time.Second))
			if out, err := wire.Append(nil, wire.Frame{Kind: refuse}); err == nil {
				nc.Write(out)
			}
			nc.Close()
		}()
		return
	}
	s.obs.accepted.Inc()
	go s.handle(nc)
}

// connBufSize sizes the per-connection read buffer; it is also the upper
// bound on how many request bytes one micro-batch can drain.
const connBufSize = 64 << 10

func (s *Server) handle(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.obs.closed.Inc()
		s.connWG.Done()
	}()

	br := newConnReader(nc, connBufSize)
	var rbuf []byte // wire.Read scratch; frame Data aliases it
	fr := s.cfg.Flight
	// t is this connection's one task, reused for every micro-batch.
	t := new(task)

	for {
		// A micro-batch is the blocking read of one frame plus every frame
		// already buffered behind it, up to MaxInflight; each is applied
		// as soon as it is read.
		t.reset()
		f, rb, err := wire.Read(br, rbuf, wire.DefaultMaxFrame)
		rbuf = rb
		for err == nil {
			if fr.Enabled() && f.Traced() {
				ts := fr.Now()
				fr.RecordAt(ts, flight.KServerRead, f.Trace, f.SendNano)
				t.traced = append(t.traced, tracedReq{trace: f.Trace, readTS: ts})
			}
			if s.applyFrame(t, f) != nil {
				s.count(t)
				return // a reply wire cannot encode: the batch goes unanswered
			}
			if t.frames >= s.cfg.MaxInflight {
				s.obs.stalls.Inc()
				break
			}
			if !br.frameBuffered() {
				break
			}
			f, rbuf, err = wire.Read(br, rbuf, wire.DefaultMaxFrame)
		}
		s.count(t)
		// A framing violation gets a parting ERR frame after the replies to
		// the frames before it, then the connection closes: the stream can
		// no longer be matched to replies. Transport errors (EOF, reset,
		// drain-deadline timeouts) can only end the blocking first read,
		// with nothing to answer.
		framing := errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame) || errors.Is(err, wire.ErrBadKind)
		if err != nil && !framing {
			return
		}
		if t.mutated && s.dur != nil && s.dur.Commit() != nil {
			return // commit failed: nothing applied here may be ACKed
		}
		if framing {
			s.obs.bad.Inc()
			t.reply(wire.StatusErr, 0, []byte(err.Error())) // short text: always encodes
		}
		nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, werr := nc.Write(t.out); werr != nil {
			return
		}
		if fr.Enabled() {
			s.finishBatch(fr, t.traced, t.frames)
		}
		if framing {
			return
		}
	}
}

// tracedReq carries one traced frame's identity from its read to the
// response flush, where the server-side span closes.
type tracedReq struct {
	trace  uint64
	readTS int64
}

// finishBatch records the flush for every traced frame of a batch (arg =
// read-to-flush span, the whole server-side residence time), flags SLO
// breaches, and marks the batch boundary.
func (s *Server) finishBatch(fr *flight.Recorder, traced []tracedReq, batch int) {
	now := fr.Now()
	for _, tr := range traced {
		span := now - tr.readTS
		fr.RecordAt(now, flight.KServerFlush, tr.trace, span)
		if s.cfg.SLO > 0 && span > int64(s.cfg.SLO) {
			fr.Anomaly(flight.KSLOBreach, tr.trace, span)
		}
	}
	fr.Record(flight.KServerBatch, 0, int64(batch))
}

// applyOp executes one operation — a single-op frame or one batch entry —
// against the backend, tallies it by kind in t, and returns its status
// triple; mutated reports whether the backend changed (the signal that
// the micro-batch needs a WAL commit before its replies flush). data
// aliases the connection read buffer, so an insert hands the backend a
// clone, the value being the one datum a backend keeps; the lease table
// copies it under its header and takes data as it is.
func (s *Server) applyOp(t *task, k wire.Kind, arg int64, data []byte) (st wire.Kind, rarg int64, rdata []byte, mutated bool) {
	switch {
	case !k.IsRequest():
		s.obs.bad.Inc()
		return wire.StatusErr, 0, []byte("not a request: " + k.String()), false
	case k >= wire.OpPopLease && s.lease == nil:
		// Without a lease table the lease opcodes are a configuration
		// error, not a queue condition: StatusErr rather than NOLEASE.
		s.obs.bad.Inc()
		return wire.StatusErr, 0, []byte("lease protocol not enabled"), false
	}
	t.kinds[k]++
	switch k {
	case wire.OpInsert:
		if s.lease == nil {
			data = bytes.Clone(data)
		}
		s.cfg.Backend.Push(arg, data)
		return wire.StatusOK, 0, nil, true
	case wire.OpDeleteMin:
		if p, v, ok := s.cfg.Backend.Pop(); ok {
			return wire.StatusOK, p, v, true
		}
		return wire.StatusEmpty, 0, nil, false
	case wire.OpPeek:
		if p, v, ok := s.cfg.Backend.Peek(); ok {
			return wire.StatusOK, p, v, false
		}
		return wire.StatusEmpty, 0, nil, false
	case wire.OpLen:
		return wire.StatusOK, int64(s.cfg.Backend.Len()), nil, false
	case wire.OpPing:
		return wire.StatusOK, 0, nil, false
	default:
		return s.applyLeaseOp(k, arg, data)
	}
}

// applyLeaseOp executes one at-least-once-protocol operation against the
// lease table.
func (s *Server) applyLeaseOp(k wire.Kind, arg int64, data []byte) (st wire.Kind, rarg int64, rdata []byte, mutated bool) {
	lt := s.lease
	switch k {
	case wire.OpPopLease:
		dead := string(data) == wire.SelectorDead
		id, prio, deadline, value, ok := lt.PopLease(time.Duration(arg)*time.Millisecond, dead)
		if !ok {
			return wire.StatusEmpty, 0, nil, false
		}
		// A grant logs nothing, yet counts as a mutation: the commit it
		// forces makes the granted element's own push durable before a
		// consumer sees the element.
		return wire.StatusLeased, prio, wire.AppendLeaseGrant(nil, id, deadline.UnixNano(), value), true
	case wire.OpAck:
		if lt.Ack(uint64(arg)) {
			return wire.StatusOK, 0, nil, true
		}
		return wire.StatusNoLease, 0, nil, false
	case wire.OpNack:
		if lt.Nack(uint64(arg)) {
			return wire.StatusOK, 0, nil, true
		}
		return wire.StatusNoLease, 0, nil, false
	case wire.OpExtend:
		ttl := time.Duration(0)
		if len(data) >= 8 {
			if ms, _, err := wire.ParseDelayValue(data); err == nil {
				ttl = time.Duration(ms) * time.Millisecond
			}
		}
		// Deliberately not durable: an extension lost to a crash only
		// expires a lease early, which at-least-once already tolerates.
		if deadline, ok := lt.Extend(uint64(arg), ttl); ok {
			return wire.StatusOK, deadline.UnixNano(), nil, false
		}
		return wire.StatusNoLease, 0, nil, false
	default: // wire.OpInsertDelay
		delayMillis, value, err := wire.ParseDelayValue(data)
		if err != nil {
			s.obs.bad.Inc()
			return wire.StatusErr, 0, []byte("insert-delay: " + err.Error()), false
		}
		// No clone: the table copies value under its stored header.
		lt.PushDelayed(arg, time.Duration(delayMillis)*time.Millisecond, value)
		return wire.StatusOK, 0, nil, true
	}
}

// Shutdown drains the server: it stops accepting, keeps normal replies for
// frames already read, answers everything arriving within DrainWindow with
// SHUTDOWN, then closes all connections and waits for their handlers. The
// context bounds the total wait; on expiry connections are force-closed and
// ctx.Err() is returned. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	t0 := time.Now()
	if s.draining.Swap(true) {
		// A concurrent Shutdown is already draining; just wait it out.
		return s.waitConns(ctx)
	}
	s.cfg.Flight.Anomaly(flight.KDrainStart, 0, 0)
	// Drain ordering: everything appended before the drain flag flipped is
	// forced durable before any late frame is answered with SHUTDOWN. A
	// client seeing SHUTDOWN may give up on the server for good, so the
	// state it was ACKed up to that point must already be on disk.
	if s.dur != nil {
		s.dur.Sync()
	}

	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	window := s.cfg.DrainWindow
	if dl, ok := ctx.Deadline(); ok {
		if w := time.Until(dl) / 2; w < window {
			window = w
		}
	}
	// Wake handlers blocked in Read once the window elapses. Frames that
	// arrive before the deadline still get their SHUTDOWN replies.
	deadline := time.Now().Add(window)
	for nc := range s.conns {
		nc.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	err := s.waitConns(ctx)
	// Handlers have quiesced: no new grants can race the release. Nack
	// every outstanding lease back into the queue so the final sync below
	// covers the requeues and a restart redelivers in-flight work
	// immediately instead of waiting out dead consumers' TTLs.
	if s.lease != nil {
		if n := s.lease.NackAll(); n > 0 {
			s.obs.drainNacked.Add(uint64(n))
		}
	}
	// Final barrier: every handler has returned, so every append has
	// happened; one Sync makes the whole drained state durable even in
	// async WAL mode (where per-batch Commits never waited).
	if s.dur != nil {
		if serr := s.dur.Sync(); err == nil {
			err = serr
		}
	}
	s.obs.drainNs.Add(uint64(time.Since(t0)))
	return err
}

func (s *Server) waitConns(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.finishClose()
		return nil
	case <-ctx.Done():
		s.finishClose()
		<-done
		return ctx.Err()
	}
}

// finishClose force-closes whatever is still open and marks the server
// closed.
func (s *Server) finishClose() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
}

// Close shuts the server down immediately: no drain window, in-flight
// frames may go unanswered. Prefer Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.finishClose()
	s.connWG.Wait()
	return nil
}
