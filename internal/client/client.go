// Package client is the Go client for pqd (internal/server): a connection
// pool speaking the internal/wire frame protocol with pipelined calls,
// per-operation timeouts, bounded retries, and typed errors.
//
// The protocol is order-matched: each connection's responses arrive in
// request order, so the client keeps a FIFO of pending calls per
// connection and needs no request IDs. Calls from any number of goroutines
// are multiplexed over the pool; a per-connection writer goroutine
// coalesces concurrently submitted requests into one socket write
// (client-side micro-batching, the mirror image of the server's), and a
// reader goroutine completes pending calls as response frames arrive.
//
// Error taxonomy:
//
//   - ErrBusy: the server refused under backpressure; the request was not
//     applied. Retried automatically up to Config.Retries.
//   - ErrShutdown: the server is draining; the request was not applied.
//     Not retried — the server is going away.
//   - ErrTimeout: no response within Config.OpTimeout. The request may or
//     may not have been applied.
//   - ErrConn (wrapping the transport error): the connection died with the
//     request possibly in flight. Only Ping, Peek and Len — requests that
//     are safe to repeat — are retried; Insert and DeleteMin are not, to
//     keep at-most-once application.
//   - RemoteError: the server answered ERR (malformed request).
//   - ErrClosed: this client was closed.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/wire"
)

// Typed errors; see the package comment for when each occurs.
var (
	ErrClosed   = errors.New("client: closed")
	ErrBusy     = errors.New("client: server over capacity")
	ErrShutdown = errors.New("client: server shutting down")
	ErrTimeout  = errors.New("client: operation timed out")
	ErrConn     = errors.New("client: connection failed")
)

// RemoteError is a server-reported request error (wire.StatusErr).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "client: server error: " + e.Msg }

// Config configures a Client. Addr is required; zero values elsewhere
// select the defaults noted on each field.
type Config struct {
	// Addr is the server's TCP address ("host:port"). Required.
	Addr string
	// Conns is the pool size (default 1). Without BatchLinger calls
	// round-robin across it; with BatchLinger every call goes to the pool's
	// current connection, and the pool moves on once per batch that
	// connection's writer closes (see BatchLinger).
	Conns int
	// Window caps pipelined in-flight calls per connection (default 128).
	// Submitting past it blocks — the client-side face of backpressure.
	Window int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// OpTimeout bounds each call's wait for a response (default 10s).
	OpTimeout time.Duration
	// Retries is how many times a failed call is re-attempted when safe
	// (default 2; see the package comment for the retry policy).
	Retries int
	// BatchMax turns on transparent op coalescing: pending Insert and
	// DeleteMin calls that are adjacent in the write queue are packed, up
	// to BatchMax per frame, into one wire.OpBatch frame that the server
	// applies under one backend acquisition and one WAL commit. It is
	// clamped to wire.MaxBatchOps, the most a server accepts. 0 or 1
	// disables batching — every call then goes out as its own single-op
	// frame, byte-identical to the pre-batch protocol. Peek, Len, Ping and
	// traced calls are never batched (they keep per-frame semantics), and
	// coalescing never reorders: a batch frame occupies its calls' FIFO
	// position. Requires a batch-aware server; a pre-batch server rejects
	// the frame and the connection fails with RemoteError.
	//
	// A batch's answers share one reply frame and so the protocol's 1 MiB
	// frame budget (wire.DefaultMaxFrame): a batch of pops whose values
	// sum past it is never answered — the server drops the connection and
	// every call of the batch fails with ErrConn, its operation
	// indeterminate.
	BatchMax int
	// BatchLinger, if positive, is how long the writer waits after waking
	// for more calls to join the outgoing write — trading per-op latency
	// for batch width. Zero coalesces only what is already queued.
	//
	// With BatchLinger the pool fills one connection's window at a time:
	// calls go to the current connection until its writer closes the batch,
	// then to the next. One window becomes one full frame (one server read,
	// apply and WAL commit) instead of Conns partial ones, and consecutive
	// windows still land on different connections, which the server
	// applies in parallel and group-commits together.
	BatchLinger time.Duration
	// Flight, if non-nil, turns on end-to-end tracing: every request frame
	// carries a fresh trace ID and the client's wall-clock send time
	// (wire.FlagTraced), and the recorder gets a flight.KClientSend event at
	// submission and a flight.KClientRecv event when the response arrives.
	// Pair its dump with the server's (flight.Attribute, cmd/pqtrace) to
	// split measured latency into network, queueing, and structure time.
	Flight *flight.Recorder
}

func (cfg *Config) fillDefaults() {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BatchMax > wire.MaxBatchOps {
		cfg.BatchMax = wire.MaxBatchOps
	}
}

// Client is a pooled, pipelined pqd client. Safe for concurrent use.
type Client struct {
	cfg    Config
	closed atomic.Bool
	// next, mod Conns, is the slot of the last call (round-robin) or, with
	// BatchLinger, of the current connection.
	next atomic.Uint64

	mu    sync.Mutex
	slots []*conn
}

// Dial creates a client and eagerly establishes the first pooled
// connection, so a bad address fails here rather than on the first call.
func Dial(cfg Config) (*Client, error) {
	cfg.fillDefaults()
	cl := &Client{cfg: cfg, slots: make([]*conn, cfg.Conns)}
	c, err := dialConn(cfg, cl.rotator(0))
	if err != nil {
		return nil, err
	}
	cl.slots[0] = c
	return cl, nil
}

// Close closes every pooled connection. In-flight calls complete with
// ErrClosed or their transport error.
func (cl *Client) Close() error {
	if cl.closed.Swap(true) {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, c := range cl.slots {
		if c != nil {
			c.fail(ErrClosed)
		}
	}
	return nil
}

// getConn picks a pooled connection, redialing dead slots: the next one in
// turn, or with BatchLinger the current one (see Config.BatchLinger).
func (cl *Client) getConn() (*conn, error) {
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	var i int
	if cl.cfg.BatchLinger > 0 {
		i = int(cl.next.Load() % uint64(len(cl.slots)))
	} else {
		i = int(cl.next.Add(1) % uint64(len(cl.slots)))
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	c := cl.slots[i]
	if c == nil || c.isDead() {
		nc, err := dialConn(cl.cfg, cl.rotator(i))
		if err != nil {
			return nil, err
		}
		cl.slots[i] = nc
		c = nc
	}
	return c, nil
}

// rotator returns the hook slot i's writer calls when it closes a batch:
// nil without BatchLinger, else a step of the pool past slot i if slot i is
// still the current one. Only the current connection moves the pool, so a
// straggler frame on the previous one cannot cut the next window short.
func (cl *Client) rotator(i int) func() {
	if cl.cfg.BatchLinger <= 0 {
		return nil
	}
	n := uint64(len(cl.slots))
	return func() {
		if v := cl.next.Load(); v%n == uint64(i) {
			cl.next.CompareAndSwap(v, v+1)
		}
	}
}

// Result is one completed call's payload: Priority/Value/Found for
// element-returning ops, Len for OpLen, LeaseID/DeadlineNano for the
// lease protocol. Value is an owned copy.
type Result struct {
	Priority     int64
	Value        []byte
	Found        bool
	Len          int
	LeaseID      uint64
	DeadlineNano int64
}

// Pending is an in-flight pipelined call; see the *Async methods.
type Pending struct {
	call    *call
	timeout time.Duration
	trace   uint64
	res     Result
	err     error
}

// Trace returns the call's trace ID, 0 when the client was built without
// Config.Flight.
func (p *Pending) Trace() uint64 { return p.trace }

// timerPool recycles the Wait timeout timers; a fresh runtime timer per
// in-flight op is measurable at batched throughput.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// Wait blocks for the response (bounded by the client's OpTimeout) and
// returns it. Wait may be called once from any goroutine.
func (p *Pending) Wait() (Result, error) {
	ca := p.call
	if ca == nil {
		// A repeated Wait replays the stored outcome.
		return p.res, p.err
	}
	select {
	case <-ca.done:
	default:
		t := timerPool.Get().(*time.Timer)
		t.Reset(p.timeout)
		select {
		case <-ca.done:
		case <-t.C:
			timerPool.Put(t)
			// The call may still complete later; it is not recycled, so the
			// late completion writes into an object nobody reads.
			p.call = nil
			p.err = ErrTimeout
			return Result{}, ErrTimeout
		}
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		timerPool.Put(t)
	}
	p.res, p.err = ca.res, ca.err
	p.call = nil
	putCall(ca)
	return p.res, p.err
}

// traceIDs issues process-unique trace identifiers; 0 means untraced.
var traceIDs atomic.Uint64

// submitAsync is submit into a heap Pending the caller keeps.
func (cl *Client) submitAsync(op wire.Kind, arg int64, data []byte) (*Pending, error) {
	p := new(Pending)
	if err := cl.submit(p, op, arg, data); err != nil {
		return nil, err
	}
	return p, nil
}

// submit enqueues one request on a pooled connection and fills p, which the
// synchronous path keeps on its stack.
func (cl *Client) submit(p *Pending, op wire.Kind, arg int64, data []byte) error {
	c, err := cl.getConn()
	if err != nil {
		return err
	}
	if len(data) > wire.MaxData {
		return fmt.Errorf("%w: %d byte payload", wire.ErrFrameTooBig, len(data))
	}
	// The call holds its operation unencoded: the writer encodes at flush
	// time, where it can see which neighbors to coalesce with. The payload
	// is copied because the caller may reuse its slice the moment an Async
	// submit returns.
	ca := getCall()
	ca.op, ca.arg = op, arg
	if len(data) > 0 {
		ca.data = append(ca.data[:0], data...)
	}
	fr := cl.cfg.Flight
	if fr.Enabled() {
		ca.trace = traceIDs.Add(1)
		ca.sendNano = time.Now().UnixNano()
	}
	// The send stamp is taken here, not in the writer goroutine, so the
	// measured end-to-end span includes the client-side pipeline wait —
	// the latency a caller actually experiences.
	fr.Record(flight.KClientSend, ca.trace, ca.sendNano)
	if err := c.enqueue(ca); err != nil {
		return err
	}
	*p = Pending{call: ca, timeout: cl.cfg.OpTimeout, trace: ca.trace}
	return nil
}

// retryable classifies errors the sync wrappers may re-attempt. Connection
// errors are retryable only for repeat-safe ops; BUSY and dial failures
// always (the request was provably not applied).
func retryable(op wire.Kind, err error) bool {
	switch {
	case errors.Is(err, ErrBusy):
		return true
	case errors.Is(err, ErrConn):
		// OpExtend is repeat-safe: extending twice only moves the deadline.
		return op == wire.OpPing || op == wire.OpPeek || op == wire.OpLen || op == wire.OpExtend
	}
	return false
}

// do is the sync path: submit, wait, retry per policy.
func (cl *Client) do(op wire.Kind, arg int64, data []byte) (Result, error) {
	var lastErr error
	for attempt := 0; attempt <= cl.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
		var p Pending
		if err := cl.submit(&p, op, arg, data); err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrShutdown) {
				return Result{}, err
			}
			// Submission failed before anything reached the server (dial
			// error, dead connection): safe to retry for every op.
			lastErr = err
			continue
		}
		res, err := p.Wait()
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable(op, err) {
			return Result{}, err
		}
	}
	return Result{}, lastErr
}

// Insert adds value at priority.
func (cl *Client) Insert(priority int64, value []byte) error {
	_, err := cl.do(wire.OpInsert, priority, value)
	return err
}

// DeleteMin removes and returns the minimum element; found is false on an
// empty queue.
func (cl *Client) DeleteMin() (priority int64, value []byte, found bool, err error) {
	res, err := cl.do(wire.OpDeleteMin, 0, nil)
	return res.Priority, res.Value, res.Found, err
}

// Peek returns the minimum element without removing it (advisory under
// concurrency, like PQ.Peek).
func (cl *Client) Peek() (priority int64, value []byte, found bool, err error) {
	res, err := cl.do(wire.OpPeek, 0, nil)
	return res.Priority, res.Value, res.Found, err
}

// Len returns the server-side element count.
func (cl *Client) Len() (int, error) {
	res, err := cl.do(wire.OpLen, 0, nil)
	return res.Len, err
}

// Ping round-trips a no-op frame.
func (cl *Client) Ping() error {
	_, err := cl.do(wire.OpPing, 0, nil)
	return err
}

// InsertAsync submits an Insert without waiting; call Pending.Wait to
// collect the ack. Async calls are not retried.
func (cl *Client) InsertAsync(priority int64, value []byte) (*Pending, error) {
	return cl.submitAsync(wire.OpInsert, priority, value)
}

// DeleteMinAsync submits a DeleteMin without waiting.
func (cl *Client) DeleteMinAsync() (*Pending, error) {
	return cl.submitAsync(wire.OpDeleteMin, 0, nil)
}

// call is one request/response pair in flight. Calls are pooled: the
// done channel is buffered and signalled by send (not close) so a
// completed, collected call — along with its payload buffer — is reused
// by a later submit instead of burning an allocation and a channel per
// operation.
type call struct {
	op       wire.Kind
	arg      int64
	data     []byte // owned copy of the request payload
	trace    uint64 // 0 when untraced
	sendNano int64
	res      Result
	err      error
	claimed  atomic.Bool // the completion claim; see complete
	done     chan struct{}
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// getCall returns a reset pooled call.
func getCall() *call {
	ca := callPool.Get().(*call)
	ca.op, ca.arg = 0, 0
	ca.data = ca.data[:0]
	ca.trace, ca.sendNano = 0, 0
	ca.res, ca.err = Result{}, nil
	ca.claimed.Store(false)
	return ca
}

// putCall recycles a completed call whose outcome has been collected.
// Callers must never recycle a call that may still complete later (a
// timed-out Wait): the pool hands it to a new operation.
func putCall(ca *call) { callPool.Put(ca) }

// batchable reports whether the writer may pack this call into an OpBatch
// frame: only the queue mutations coalesce, and a traced call keeps its
// own frame so its trace trailer (and per-op server spans) survive.
func (c *call) batchable() bool {
	return (c.op == wire.OpInsert || c.op == wire.OpDeleteMin) && c.trace == 0
}

// complete delivers the call's outcome exactly once. The claim CAS (not
// sync.Once, whose done-flag store lands AFTER the function returns and
// would race with pool reuse) makes the done send the completer's final
// touch of the call: once Wait receives, the object is quiescent and safe
// to recycle.
func (c *call) complete(res Result, err error) {
	if !c.claimed.CompareAndSwap(false, true) {
		return
	}
	c.res, c.err = res, err
	c.done <- struct{}{}
}

// group is the inflight FIFO unit: the calls answered by one response
// frame. A single-op frame's group carries its call inline in one; an
// OpBatch frame's group holds every call packed into it, in entry order,
// in a slice recycled through conn.free.
type group struct {
	one   *call
	calls []*call
}

// fail completes every call of the group with err.
func (g group) fail(err error) {
	if g.one != nil {
		g.one.complete(Result{}, err)
	}
	for _, ca := range g.calls {
		ca.complete(Result{}, err)
	}
}

// conn is one pooled connection: a writer goroutine batching wq into
// socket writes (and, with Config.BatchMax, coalescing adjacent calls
// into OpBatch frames), a reader goroutine matching response frames to
// the inflight FIFO of groups.
type conn struct {
	nc       net.Conn
	wq       chan *call
	inflight chan group
	free     chan []*call // answered batch groups' slices, reader back to writer
	window   int
	batchMax int
	linger   time.Duration
	rotate   func() // nil, or moves the pool on; see Client.rotator
	fr       *flight.Recorder

	ctx    context.Context
	cancel context.CancelFunc
	dead   atomic.Bool
	errMu  sync.Mutex
	err    error
}

func dialConn(cfg Config, rotate func()) (*conn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConn, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &conn{
		nc:       nc,
		wq:       make(chan *call, cfg.Window),
		inflight: make(chan group, cfg.Window),
		// As many slices as there can be batch groups in flight.
		free:     make(chan []*call, cfg.Window),
		window:   cfg.Window,
		batchMax: cfg.BatchMax,
		linger:   cfg.BatchLinger,
		rotate:   rotate,
		fr:       cfg.Flight,
		ctx:      ctx,
		cancel:   cancel,
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

func (c *conn) isDead() bool { return c.dead.Load() }

// fail kills the connection once: records err, wakes both loops, and lets
// them drain every queued and in-flight call with that error.
func (c *conn) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	if c.dead.Swap(true) {
		return
	}
	c.cancel()
	c.nc.Close()
}

func (c *conn) failErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrConn
}

// enqueue hands a call to the writer, blocking when the pipeline window is
// full (client-side backpressure).
func (c *conn) enqueue(ca *call) error {
	if c.dead.Load() {
		return c.failErr()
	}
	select {
	case c.wq <- ca:
		// Fast path: the window has room, no select machinery needed.
	default:
		select {
		case c.wq <- ca:
		case <-c.ctx.Done():
			return c.failErr()
		}
	}
	// If the connection died between the dead check and the send, the
	// writer may already have drained and exited; sweep again so the
	// call cannot be stranded.
	if c.dead.Load() {
		c.drainPending()
	}
	return nil
}

// writeLoop batches queued calls: everything submitted by the time it
// wakes (plus, with BatchLinger, a bounded wait for stragglers) goes out
// in one socket write. With BatchMax > 1 runs of adjacent batchable calls
// are additionally coalesced into OpBatch frames. Each group enters the
// inflight FIFO before its bytes are written, preserving request/response
// order.
func (c *conn) writeLoop() {
	var out []byte
	var entries []wire.BatchEntry
	var lingerTimer *time.Timer
	batch := make([]*call, 0, c.window)
	for {
		select {
		case <-c.ctx.Done():
			c.drainPending()
			return
		case first := <-c.wq:
			batch = append(batch[:0], first)
			if c.linger > 0 {
				if lingerTimer == nil {
					lingerTimer = time.NewTimer(c.linger)
				} else {
					lingerTimer.Reset(c.linger)
				}
			lingering:
				for len(batch) < c.window {
					select {
					case more := <-c.wq:
						batch = append(batch, more)
					case <-lingerTimer.C:
						break lingering
					case <-c.ctx.Done():
						break lingering
					}
				}
				if !lingerTimer.Stop() {
					select {
					case <-lingerTimer.C:
					default:
					}
				}
			}
		gather:
			for len(batch) < c.window {
				select {
				case more := <-c.wq:
					batch = append(batch, more)
				default:
					break gather
				}
			}
			// The batch is closed: later calls belong to the next window, which
			// the pool sends to another connection while this one is written.
			if c.rotate != nil {
				c.rotate()
			}
			out = out[:0]
			aborted := false
			for i := 0; i < len(batch); {
				if aborted {
					batch[i].complete(Result{}, c.failErr())
					i++
					continue
				}
				// Coalesce the run of batchable calls starting here, bounded
				// by BatchMax entries and by the frame budget; a run of one
				// is cheaper as a plain single-op frame.
				j := i
				if c.batchMax > 1 && batch[i].batchable() {
					size := 0
					for j < len(batch) && j-i < c.batchMax && batch[j].batchable() {
						size += 13 + len(batch[j].data)
						if 9+size > wire.DefaultMaxFrame {
							break
						}
						j++
					}
				}
				var g group
				var err error
				if j-i >= 2 {
					entries = entries[:0]
					for _, ca := range batch[i:j] {
						entries = append(entries, wire.BatchEntry{Kind: ca.op, Arg: ca.arg, Data: ca.data})
					}
					out, err = wire.AppendBatch(out, entries, 0, 0)
					var calls []*call
					select {
					case calls = <-c.free:
					default:
					}
					g = group{calls: append(calls, batch[i:j]...)}
				} else {
					ca := batch[i]
					out, err = wire.Append(out, wire.Frame{
						Kind: ca.op, Arg: ca.arg, Data: ca.data,
						Trace: ca.trace, SendNano: ca.sendNano,
					})
					g = group{one: ca}
					j = i + 1
				}
				if err != nil {
					// Encoding is validated at submit; an error here is a bug,
					// but failing the calls beats wedging the pipeline.
					g.fail(err)
					i = j
					continue
				}
				select {
				case c.inflight <- g:
				case <-c.ctx.Done():
					g.fail(c.failErr())
					aborted = true
				}
				i = j
			}
			if aborted {
				c.drainPending()
				return
			}
			c.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := c.nc.Write(out); err != nil {
				c.fail(fmt.Errorf("%w: write: %v", ErrConn, err))
				c.drainPending()
				return
			}
		}
	}
}

// readLoop completes inflight groups as response frames arrive: one
// frame answers one group — a single call, or every call of a batch.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		f, rb, err := wire.Read(br, buf, wire.DefaultMaxFrame)
		buf = rb
		if err != nil {
			c.fail(fmt.Errorf("%w: read: %v", ErrConn, err))
			c.drainPending()
			return
		}
		var g group
		select {
		case g = <-c.inflight:
		default:
			// A frame with nothing outstanding: the server's one-frame
			// refusal of the whole connection, or a protocol violation.
			switch f.Kind {
			case wire.StatusBusy:
				c.fail(ErrBusy)
			case wire.StatusShutdown:
				c.fail(ErrShutdown)
			default:
				c.fail(fmt.Errorf("%w: unsolicited %v frame", ErrConn, f.Kind))
			}
			c.drainPending()
			return
		}
		ca := g.one
		if ca == nil {
			if err := c.completeBatch(g, f); err != nil {
				// The group has left the FIFO, so drainPending cannot reach
				// the calls the bad frame did not answer.
				g.fail(err)
				c.fail(err)
				c.drainPending()
				return
			}
			clear(g.calls)
			select {
			case c.free <- g.calls[:0]:
			default:
			}
			continue
		}
		if ca.trace != 0 {
			c.fr.Record(flight.KClientRecv, ca.trace, 0)
		}
		ca.complete(decodeResponse(ca.op, f))
	}
}

// completeBatch fans one response frame out to a batch group's calls.
// The normal answer is StatusBatch with one status entry per call, in
// call order; a whole-frame BUSY/SHUTDOWN/ERR refusal completes every
// call with that error. Anything else — another kind, a count mismatch, a
// torn entry — is a protocol violation that kills the connection; the
// entries decoded before a torn one keep their answers.
func (c *conn) completeBatch(g group, f wire.Frame) error {
	switch f.Kind {
	case wire.StatusBatch:
		if f.Arg != int64(len(g.calls)) {
			return fmt.Errorf("%w: batch answered %d of %d ops", ErrConn, f.Arg, len(g.calls))
		}
		data := f.Data
		for _, ca := range g.calls {
			e, rest, err := wire.NextBatchEntry(data, false)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrConn, err)
			}
			data = rest
			ca.complete(decodeResponse(ca.op, wire.Frame{Kind: e.Kind, Arg: e.Arg, Data: e.Data}))
		}
		if len(data) > 0 {
			return fmt.Errorf("%w: %v: %d bytes after the last entry", ErrConn, wire.ErrBadBatch, len(data))
		}
		return nil
	case wire.StatusBusy, wire.StatusShutdown, wire.StatusErr:
		for _, ca := range g.calls {
			ca.complete(decodeResponse(ca.op, f))
		}
		return nil
	}
	return fmt.Errorf("%w: %v frame answering a batch", ErrConn, f.Kind)
}

// decodeResponse maps one response frame to the call's Result/error.
func decodeResponse(op wire.Kind, f wire.Frame) (Result, error) {
	switch f.Kind {
	case wire.StatusOK:
		res := Result{Priority: f.Arg}
		switch op {
		case wire.OpDeleteMin, wire.OpPeek:
			res.Found = true
			res.Value = append([]byte(nil), f.Data...) // Data aliases the read buffer
		case wire.OpLen:
			res.Len = int(f.Arg)
		case wire.OpExtend:
			res.DeadlineNano = f.Arg
		}
		return res, nil
	case wire.StatusLeased:
		id, deadline, value, err := wire.ParseLeaseGrant(f.Data)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrConn, err)
		}
		return Result{
			Priority:     f.Arg,
			Value:        append([]byte(nil), value...), // aliases the read buffer
			Found:        true,
			LeaseID:      id,
			DeadlineNano: deadline,
		}, nil
	case wire.StatusNoLease:
		return Result{}, ErrNoLease
	case wire.StatusEmpty:
		return Result{}, nil
	case wire.StatusBusy:
		return Result{}, ErrBusy
	case wire.StatusShutdown:
		return Result{}, ErrShutdown
	case wire.StatusErr:
		return Result{}, &RemoteError{Msg: string(f.Data)}
	}
	return Result{}, fmt.Errorf("%w: unexpected response kind %v", ErrConn, f.Kind)
}

// drainPending completes every queued and in-flight call with the
// connection's error. Both loops call it on exit; completion is idempotent,
// and after ctx is cancelled no new calls enter either channel, so between
// the two sweeps nothing is left hanging.
func (c *conn) drainPending() {
	err := c.failErr()
	for {
		select {
		case ca := <-c.wq:
			ca.complete(Result{}, err)
		case g := <-c.inflight:
			g.fail(err)
		default:
			return
		}
	}
}
