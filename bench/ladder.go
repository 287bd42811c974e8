package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/core"
	"skipqueue/internal/harness"
	"skipqueue/internal/lease"
	"skipqueue/internal/lockfree"
	"skipqueue/internal/wal"
	"skipqueue/internal/wire"
)

// The ladder runs one seeded stream of operations against each layer in
// turn, from one goroutine, so that counts repeat exactly and a layer's own
// cost is the difference between its rung and the rung below. Every call
// is timed; the two clock readings (about 40 ns) are in every rung alike.

type ladderOp struct {
	push bool
	prio int64
	key  string // the root adapter's composite key, encoded ahead of time
	val  []byte
}

// compositeKey mirrors the root adapter's key: sign-flipped priority, then
// sequence, big-endian, so that strings order by (priority, arrival).
func compositeKey(priority int64, seq uint64) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(priority)^(1<<63))
	binary.BigEndian.PutUint64(b[8:], seq)
	return string(b[:])
}

// ladderStream is the prefill followed by a 50/50 stream whose push-pop
// balance is clamped like inproc-mixed's, so no pop finds a queue empty.
func ladderStream(seed uint64, l ladderSpec) (prefill, ops []ladderOp) {
	rng := rand.New(rand.NewPCG(seed, 99))
	var seq uint64
	mk := func(push bool) ladderOp {
		if !push {
			return ladderOp{}
		}
		seq++
		p := rng.Int64N(1 << 20)
		return ladderOp{push: true, prio: p, key: compositeKey(p, seq), val: make([]byte, 16)}
	}
	for i := 0; i < l.Prefill; i++ {
		prefill = append(prefill, mk(true))
	}
	bal := 0
	for i := 0; i < l.Ops; i++ {
		push := rng.Uint64()&1 == 0
		if bal >= 256 {
			push = false
		} else if bal <= -256 {
			push = true
		}
		if push {
			bal++
		} else {
			bal--
		}
		ops = append(ops, mk(push))
	}
	return prefill, ops
}

// rung is one pass of the stream over one layer.
type rung struct {
	ins, del      []int64 // ns per call
	allocs, bytes float64 // per operation, from runtime.MemStats
}

func (r rung) meanNs() float64 {
	return (mean(r.ins)*float64(len(r.ins)) + mean(r.del)*float64(len(r.del))) / float64(len(r.ins)+len(r.del))
}

var errLadderEmpty = errors.New("ladder: a pop found the queue empty")

// runRung makes passes passes of the stream, each over a fresh structure
// from mk, and returns the pass whose mean time is the median: the first
// pass of a process runs on cold caches and a growing heap, and any pass
// can be hit by a neighbour on a shared box.
func runRung(prefill, ops []ladderOp, passes int, mk func() (push func(ladderOp), pop func() bool)) (rung, error) {
	all := make([]rung, passes)
	for p := range all {
		push, pop := mk()
		for _, o := range prefill {
			push(o)
		}
		r := rung{ins: make([]int64, 0, len(ops)), del: make([]int64, 0, len(ops))}
		runtime.GC()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, o := range ops {
			t := time.Now()
			if o.push {
				push(o)
				r.ins = append(r.ins, int64(time.Since(t)))
				continue
			}
			ok := pop()
			r.del = append(r.del, int64(time.Since(t)))
			if !ok {
				return r, errLadderEmpty
			}
		}
		runtime.ReadMemStats(&b)
		r.allocs = float64(b.Mallocs-a.Mallocs) / float64(len(ops))
		r.bytes = float64(b.TotalAlloc-a.TotalAlloc) / float64(len(ops))
		all[p] = r
	}
	slices.SortFunc(all, func(a, b rung) int { return cmp.Compare(a.meanNs(), b.meanNs()) })
	return all[passes/2], nil
}

// pushPop is the surface every adapter-level rung offers.
type pushPop interface {
	Push(priority int64, value []byte)
	Pop() (int64, []byte, bool)
}

func runAdapterRung(prefill, ops []ladderOp, passes int, mk func() pushPop) (rung, error) {
	return runRung(prefill, ops, passes, func() (func(ladderOp), func() bool) {
		q := mk()
		return func(o ladderOp) { q.Push(o.prio, o.val) },
			func() bool { _, _, ok := q.Pop(); return ok }
	})
}

// count rounds a per-operation count to 1/1000, so that the handful of
// allocations the runtime makes on its own does not show as a difference
// between two runs.
func count(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

func p50us(v []int64) float64 {
	s := pool(v)
	q, _ := quantile(s, 0.5)
	return float64(q) / 1e3
}

// runLadder measures every in-process rung and the rungs against a bare
// pqd, and returns the per-layer metrics by name.
func runLadder(o runOpts) (map[string]float64, []string, error) {
	l := o.spec.Ladder
	vals := map[string]float64{}
	prefill, ops := ladderStream(o.seed, l)

	ref, err := runAdapterRung(prefill, ops, l.Passes, func() pushPop { return skipqueue.NewGlobalHeapPQ[[]byte]() })
	if err != nil {
		return nil, nil, err
	}
	refNs := ref.meanNs()
	vals["glheap.ns_per_op"] = refNs

	coreR, err := runRung(prefill, ops, l.Passes, func() (func(ladderOp), func() bool) {
		q := core.New[string, []byte](core.Config{Seed: o.seed})
		return func(o ladderOp) { q.Insert(o.key, o.val) },
			func() bool { _, _, ok := q.DeleteMin(); return ok }
	})
	if err != nil {
		return nil, nil, err
	}
	p99, _ := quantile(pool(coreR.ins, coreR.del), 0.99)
	vals["core.insert_ns"] = mean(coreR.ins)
	vals["core.deletemin_ns"] = mean(coreR.del)
	vals["core.ns_per_op"] = coreR.meanNs()
	vals["core.x_ref"] = coreR.meanNs() / refNs
	vals["core.op_p99_ns"] = float64(p99)
	vals["core.allocs_per_op"] = count(coreR.allocs)

	lfR, err := runRung(prefill, ops, l.Passes, func() (func(ladderOp), func() bool) {
		q := lockfree.New[string, []byte](lockfree.Config{Seed: o.seed})
		return func(o ladderOp) { q.Insert(o.key, o.val) },
			func() bool { _, _, ok := q.DeleteMin(); return ok }
	})
	if err != nil {
		return nil, nil, err
	}
	vals["lockfree.ns_per_op"] = lfR.meanNs()
	vals["lockfree.x_ref"] = lfR.meanNs() / refNs
	vals["lockfree.allocs_per_op"] = count(lfR.allocs)

	adR, err := runAdapterRung(prefill, ops, l.Passes, func() pushPop { return skipqueue.NewPQ[[]byte](skipqueue.WithSeed(o.seed)) })
	if err != nil {
		return nil, nil, err
	}
	adNs := adR.meanNs()
	vals["adapter.ns_per_op"] = adNs
	vals["adapter.x_ref"] = adNs / refNs
	vals["adapter.self_ns"] = adNs - coreR.meanNs()
	vals["adapter.allocs_per_op"] = count(adR.allocs)
	vals["adapter.bytes_per_op"] = count(adR.bytes)

	obsR, err := runAdapterRung(prefill, ops, l.Passes, func() pushPop {
		return skipqueue.NewPQ[[]byte](skipqueue.WithSeed(o.seed), skipqueue.WithMetrics())
	})
	if err != nil {
		return nil, nil, err
	}
	vals["obs.overhead_share"] = obsR.meanNs()/adNs - 1

	if err := leaseRung(o, prefill, ops, adR, vals); err != nil {
		return nil, nil, err
	}
	if err := walRungs(o, prefill, ops, adNs, refNs, vals); err != nil {
		return nil, nil, err
	}
	wireRung(l, vals)
	if err := pqdRungs(o, vals); err != nil {
		return nil, nil, err
	}
	simGuard(l, vals)

	// The ladder must be monotone: each rung contains the one below.
	var warn []string
	for _, c := range []struct{ hi, lo string }{
		{"adapter.ns_per_op", "core.ns_per_op"},
		{"lease.ns_per_pair", "adapter.ns_per_pair"},
		{"wal.async_ns_per_op", "adapter.ns_per_op"},
		{"client.rtt_p50_us", "server.insert_rtt_p50_us"},
		{"server.insert_rtt_p50_us", "server.ping_rtt_p50_us"},
	} {
		if vals[c.hi] < vals[c.lo] {
			warn = append(warn, fmt.Sprintf("ladder not monotone: %s = %.1f is below %s = %.1f", c.hi, vals[c.hi], c.lo, vals[c.lo]))
		}
	}
	return vals, warn, nil
}

// leaseRung runs the stream through a lease.Table over the adapter: a push
// is a Push, a pop is a PopLease followed by its Ack. The sweeper is off
// and nothing expires within a 30 s lease. Like runRung it keeps the
// median of several passes.
func leaseRung(o runOpts, prefill, ops []ladderOp, adapter rung, vals map[string]float64) error {
	type pass struct {
		push, pop, ack, allocs float64
	}
	var all []pass
	for p := 0; p < o.spec.Ladder.Passes; p++ {
		t := lease.New(lease.Config{TTL: 30 * time.Second, Tick: -1}, skipqueue.NewPQ[[]byte](skipqueue.WithSeed(o.seed)))
		for _, op := range prefill {
			t.Push(op.prio, op.val)
		}
		push, pop, ack := make([]int64, 0, len(ops)), make([]int64, 0, len(ops)), make([]int64, 0, len(ops))
		runtime.GC()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, op := range ops {
			t0 := time.Now()
			if op.push {
				t.Push(op.prio, op.val)
				push = append(push, int64(time.Since(t0)))
				continue
			}
			id, _, _, _, ok := t.PopLease(0, false)
			t1 := time.Now()
			acked := t.Ack(id)
			ack = append(ack, int64(time.Since(t1)))
			pop = append(pop, int64(t1.Sub(t0)))
			if !ok || !acked {
				t.Close()
				return errors.New("ladder: lease rung: PopLease or Ack failed")
			}
		}
		runtime.ReadMemStats(&b)
		t.Close()
		all = append(all, pass{mean(push), mean(pop), mean(ack), float64(b.Mallocs-a.Mallocs) / float64(len(pop))})
	}
	slices.SortFunc(all, func(a, b pass) int { return cmp.Compare(a.push+a.pop+a.ack, b.push+b.pop+b.ack) })
	m := all[len(all)/2]
	pair := m.push + m.pop + m.ack
	adapterPair := mean(adapter.ins) + mean(adapter.del)
	vals["lease.push_ns"] = m.push
	vals["lease.poplease_ns"] = m.pop
	vals["lease.ack_ns"] = m.ack
	vals["lease.ns_per_pair"] = pair
	vals["adapter.ns_per_pair"] = adapterPair
	vals["lease.self_ns"] = pair - adapterPair
	vals["lease.allocs_per_cycle"] = count(m.allocs)
	return nil
}

// walRungs runs the stream through wal.OpenQueue over the adapter in async
// mode (apply plus Commit, which does not wait), then times sync-mode
// commits one at a time.
func walRungs(o runOpts, prefill, ops []ladderOp, adNs, refNs float64, vals map[string]float64) error {
	dir, err := os.MkdirTemp(o.env.work, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var opened []*wal.Queue
	defer func() {
		for _, q := range opened {
			q.Close() // error paths only; the success path has closed them
		}
	}()
	var openErr error
	open := func(mode wal.Mode) *wal.Queue {
		d := filepath.Join(dir, fmt.Sprint(len(opened)))
		if openErr = os.Mkdir(d, 0o755); openErr != nil {
			return nil
		}
		var q *wal.Queue
		q, _, openErr = wal.OpenQueue(wal.Config{Dir: d, Mode: mode, SnapshotSegments: -1},
			skipqueue.NewPQ[[]byte](skipqueue.WithSeed(o.seed)))
		if openErr != nil {
			return nil
		}
		opened = append(opened, q)
		return q
	}

	var commitErr error
	r, err := runRung(prefill, ops, o.spec.Ladder.Passes, func() (func(ladderOp), func() bool) {
		q := open(wal.ModeAsync)
		if q == nil {
			return func(ladderOp) {}, func() bool { return false }
		}
		commit := func() {
			if err := q.Commit(); err != nil && commitErr == nil {
				commitErr = err
			}
		}
		return func(op ladderOp) { q.Push(op.prio, op.val); commit() },
			func() bool { _, _, ok := q.Pop(); commit(); return ok }
	})
	if err = errors.Join(openErr, err, commitErr); err != nil {
		return fmt.Errorf("ladder: wal rung: %w", err)
	}
	// Every pass logged the same stream; the first pass's log is measured.
	if err := opened[0].Sync(); err != nil {
		return fmt.Errorf("ladder: wal rung: %w", err)
	}
	var logBytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "0", "*.seg"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			logBytes += fi.Size()
		}
	}
	vals["wal.async_ns_per_op"] = r.meanNs()
	vals["wal.x_ref"] = r.meanNs() / refNs
	vals["wal.self_ns"] = r.meanNs() - adNs
	vals["wal.allocs_per_op"] = count(r.allocs)
	vals["wal.log_bytes_per_op"] = count(float64(logBytes) / float64(len(prefill)+len(ops)))

	sq := open(wal.ModeSync)
	if sq == nil {
		return fmt.Errorf("ladder: wal sync rung: %w", openErr)
	}
	commits := make([]int64, 0, o.spec.Ladder.SyncCommits)
	for i := 0; i < o.spec.Ladder.SyncCommits; i++ {
		t := time.Now()
		sq.Push(int64(i), prefill[0].val)
		if err := sq.Commit(); err != nil {
			return fmt.Errorf("ladder: wal sync rung: %w", err)
		}
		commits = append(commits, int64(time.Since(t)))
	}
	vals["wal.sync_commit_p50_us"] = p50us(commits)
	for _, q := range opened {
		if err := q.Close(); err != nil {
			return fmt.Errorf("ladder: wal rung: close: %w", err)
		}
	}
	opened = nil
	return nil
}

// wireRung times encode and decode in blocks of 1000 frames: one frame
// takes a few tens of nanoseconds, too little to time alone.
func wireRung(l ladderSpec, vals map[string]float64) {
	const block = 1000
	val := make([]byte, 16)
	blocks := l.WireOps / block

	var buf []byte
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < blocks; i++ {
		buf = buf[:0]
		for j := 0; j < block; j++ {
			buf, _ = wire.Append(buf, wire.Frame{Kind: wire.OpInsert, Arg: int64(j), Data: val}) // a 16-byte insert always encodes
		}
	}
	enc := time.Since(start)
	rd := bytes.NewReader(buf)
	var scratch []byte
	start = time.Now()
	for i := 0; i < blocks; i++ {
		rd.Reset(buf)
		for j := 0; j < block; j++ {
			_, scratch, _ = wire.Read(rd, scratch, 0) // reads back what the loop above wrote
		}
	}
	dec := time.Since(start)
	runtime.ReadMemStats(&b)
	n := float64(blocks * block)
	vals["wire.encode_ns"] = float64(enc) / n
	vals["wire.decode_ns"] = float64(dec) / n
	vals["wire.allocs_per_op"] = count(float64(b.Mallocs-a.Mallocs) / n)

	entries := make([]wire.BatchEntry, 64)
	for i := range entries {
		entries[i] = wire.BatchEntry{Kind: wire.OpInsert, Arg: int64(i), Data: val}
	}
	frames := l.WireOps / 64
	start = time.Now()
	for i := 0; i < frames; i++ {
		buf, _ = wire.AppendBatch(buf[:0], entries, 0, 0) // 64 small entries always encode
	}
	enc = time.Since(start)
	start = time.Now()
	for i := 0; i < frames; i++ {
		rd.Reset(buf)
		var f wire.Frame
		f, scratch, _ = wire.Read(rd, scratch, 0)
		_, _ = wire.DecodeBatch(f) // decodes what the loop above wrote
	}
	dec = time.Since(start)
	vals["wire.batch64_encode_ns_per_op"] = float64(enc) / float64(frames*64)
	vals["wire.batch64_decode_ns_per_op"] = float64(dec) / float64(frames*64)
}

// rawConn speaks frames to pqd with no client package in the path.
type rawConn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
	in  []byte
}

func (rc *rawConn) roundTrip(f wire.Frame) (wire.Frame, error) {
	var err error
	if rc.buf, err = wire.Append(rc.buf[:0], f); err != nil {
		return wire.Frame{}, err
	}
	return rc.send()
}

func (rc *rawConn) send() (wire.Frame, error) {
	if _, err := rc.c.Write(rc.buf); err != nil {
		return wire.Frame{}, err
	}
	var reply wire.Frame
	var err error
	reply, rc.in, err = wire.Read(rc.r, rc.in, 0)
	return reply, err
}

// pqdRungs starts a bare pqd (no WAL, no admin, leases on) and measures
// the server from raw frames, then the client package on the same daemon.
func pqdRungs(o runOpts, vals map[string]float64) error {
	l := o.spec.Ladder
	d, err := startDaemon(o.env.pqd, "-addr", "127.0.0.1:0", "-backend", "skipqueue", "-lease")
	if err != nil {
		return err
	}
	defer d.kill()
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return fmt.Errorf("ladder: dial pqd: %w", err)
	}
	defer c.Close()
	rc := &rawConn{c: c, r: bufio.NewReader(c)}
	val := make([]byte, 16)

	timeRTT := func(req wire.Frame, want wire.Kind) ([]int64, error) {
		out := make([]int64, 0, l.RTTOps)
		for i := 0; i < l.RTTOps; i++ {
			t := time.Now()
			reply, err := rc.roundTrip(req)
			out = append(out, int64(time.Since(t)))
			if err != nil {
				return nil, fmt.Errorf("ladder: server rung: %w", err)
			}
			if reply.Kind != want {
				return nil, fmt.Errorf("ladder: server rung: %v answered %v", req.Kind, reply.Kind)
			}
		}
		return out, nil
	}
	ping, err := timeRTT(wire.Frame{Kind: wire.OpPing}, wire.StatusOK)
	if err != nil {
		return err
	}
	ins, err := timeRTT(wire.Frame{Kind: wire.OpInsert, Arg: 7, Data: val}, wire.StatusOK)
	if err != nil {
		return err
	}
	vals["server.ping_rtt_p50_us"] = p50us(ping)
	vals["server.insert_rtt_p50_us"] = p50us(ins)

	// Batches alternate 64 inserts and 64 removals, so the depth returns.
	batch := func(kind wire.Kind) []byte {
		entries := make([]wire.BatchEntry, 64)
		for i := range entries {
			entries[i] = wire.BatchEntry{Kind: kind, Arg: int64(i)}
			if kind == wire.OpInsert {
				entries[i].Data = val
			}
		}
		b, _ := wire.AppendBatch(nil, entries, 0, 0) // 64 small entries always encode
		return b
	}
	frames := [2][]byte{batch(wire.OpInsert), batch(wire.OpDeleteMin)}
	var batchNs int64
	for i := 0; i < l.BatchFrames; i++ {
		rc.buf = frames[i%2]
		t := time.Now()
		reply, err := rc.send()
		batchNs += int64(time.Since(t))
		if err != nil || reply.Kind != wire.StatusBatch {
			return fmt.Errorf("ladder: server rung: batch answered %v: %v", reply.Kind, err)
		}
	}
	vals["server.batch64_rtt_us_per_op"] = float64(batchNs) / float64(l.BatchFrames*64) / 1e3

	cl, err := client.Dial(client.Config{Addr: d.addr, Conns: 1})
	if err != nil {
		return fmt.Errorf("ladder: dial client: %w", err)
	}
	defer cl.Close()
	rtt := make([]int64, 0, l.RTTOps)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < l.RTTOps; i++ {
		t := time.Now()
		err := cl.Insert(7, val)
		rtt = append(rtt, int64(time.Since(t)))
		if err != nil {
			return fmt.Errorf("ladder: client rung: %w", err)
		}
	}
	runtime.ReadMemStats(&b)
	cycle := make([]int64, 0, l.RTTOps)
	for i := 0; i < l.RTTOps; i++ {
		t := time.Now()
		ls, found, err := cl.PopLease(0)
		if err == nil && found {
			err = ls.Ack()
		}
		cycle = append(cycle, int64(time.Since(t)))
		if err != nil || !found {
			return fmt.Errorf("ladder: client rung: lease cycle: found=%v: %v", found, err)
		}
	}
	vals["client.rtt_p50_us"] = p50us(rtt)
	vals["client.self_us"] = vals["client.rtt_p50_us"] - vals["server.insert_rtt_p50_us"]
	vals["client.allocs_per_op"] = count(float64(b.Mallocs-a.Mallocs) / float64(l.RTTOps))
	vals["client.lease_cycle_p50_us"] = p50us(cycle)
	return nil
}

// simGuard re-runs the paper's figure-4 point on the simulated machine.
// Its cycle counts are deterministic: they must repeat bit for bit, and a
// change to them means the reproduction itself changed.
func simGuard(l ladderSpec, vals map[string]float64) {
	start := time.Now()
	run := func(s harness.Structure) harness.Result {
		return harness.Run(harness.Params{
			Structure: s, Procs: l.SimProcs, InitialSize: l.SimInitial, Ops: l.SimOps,
			InsertRatio: 0.5, Work: 100, Seed: l.SimSeed,
		})
	}
	sq := run(harness.SkipQueue)
	vals["sim.skipqueue_insert_cyc"] = sq.AvgInsert
	vals["sim.skipqueue_delete_cyc"] = sq.AvgDelete
	vals["sim.heap_delete_cyc"] = run(harness.Heap).AvgDelete
	vals["sim.funnellist_delete_cyc"] = run(harness.FunnelList).AvgDelete
	vals["sim.wall_s"] = time.Since(start).Seconds()
}
