// Package flight is the repository's flight recorder: a fixed-size,
// allocation-free, lock-free ring buffer of timestamped events — an
// aircraft-style "black box" for the queue structures and the pqd daemon.
//
// The observability layer of internal/obs answers "how much" (counters)
// and "how long in aggregate" (histograms); it cannot answer *where one
// slow request spent its time*, because quality and latency pathologies in
// relaxed concurrent queues are bursty and vanish in aggregates (Gruber's
// observation, PAPERS.md). The flight recorder keeps the most recent N
// events per shard — lock retries, sweep fallbacks, elimination exchanges,
// per-request server spans — so that when an anomaly fires (an SLO breach,
// a BUSY backpressure reject, a drain) the events *leading up to it* are
// still in memory and can be dumped.
//
// Design constraints, in order:
//
//   - Disabled must be free: every probe site holds a possibly-nil
//     *Recorder and calls a nil-safe method, so the disabled cost is one
//     nil check — no time reads, no atomics, no allocation.
//   - Enabled must be cheap and allocation-free: recording an event is an
//     atomic cursor bump plus a handful of atomic stores into a
//     preallocated slot. Writers never take a lock and never allocate.
//   - Reads must never stall writers: Snapshot walks the rings with a
//     per-slot sequence check (a seqlock in miniature) and simply discards
//     slots it caught mid-write. A dump is a diagnostic artifact, not a
//     consistent cut.
//
// Timestamps are monotonic nanoseconds since the recorder's creation
// (Go's time.Since reads the monotonic clock), so events within one
// process order and subtract exactly. Dumps carry the wall-clock epoch for
// cross-process alignment, but span attribution (see Attribute) only ever
// subtracts same-process timestamps, so client/server clock offsets cancel.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/obs"
)

// Kind classifies one recorded event. The catalog spans every layer that
// records: queue structures, the server, the client, and anomalies.
type Kind uint8

const (
	// KNone is the zero Kind; it never appears in a dump.
	KNone Kind = iota

	// Structure events, recorded from the queues' existing probe sites.

	// KLockRetry: the lock-based skiplist re-acquired a level lock after
	// losing a race (core's lock.retries probe site).
	KLockRetry
	// KSweepFallback: a sharded Pop's sampling attempts all missed and it
	// fell back to the full shard sweep (sharded's sweep.fallbacks site).
	// Arg is the number of sampling rounds that came up empty.
	KSweepFallback
	// KElimExchange: an elimination exchange completed (elim's
	// exchange.hits site). Arg is the exchanged priority.
	KElimExchange

	// Server request-span events. All carry the request's trace ID.

	// KServerRead: a traced request frame was fully read and decoded.
	// Arg is the client's send timestamp (wall-clock UnixNano) from the
	// frame, for cross-clock diagnostics.
	KServerRead
	// KServerApply: the backend operation for a traced request finished.
	// Arg is the apply duration in nanoseconds; TS − Arg is the apply
	// start, so TS(KServerApply) − Arg − TS(KServerRead) is the time the
	// request waited in the micro-batch before touching the structure.
	KServerApply
	// KServerFlush: the response batch containing a traced request's
	// reply finished its socket write. Arg is TS − TS(KServerRead), the
	// whole server-resident span.
	KServerFlush
	// KServerBatch: one micro-batch boundary (no trace ID). Arg is the
	// number of frames the batch applied.
	KServerBatch

	// Client request-span events. Both carry the request's trace ID.

	// KClientSend: a traced request was submitted to the connection's
	// write pipeline. Arg is the wall-clock UnixNano stamped into the
	// frame.
	KClientSend
	// KClientRecv: the response frame for a traced request was decoded.
	KClientRecv

	// Anomalies. Recording one of these via Anomaly also captures a dump.

	// KSLOBreach: a traced request's server span exceeded the configured
	// SLO. Arg is the span in nanoseconds.
	KSLOBreach
	// KBusyReject: a connection was refused with BUSY under backpressure.
	// Arg is the number of connections held at the time.
	KBusyReject
	// KDrainStart: a graceful drain began.
	KDrainStart
	// KFsyncStall: a WAL group-commit fsync exceeded the 50 ms stall
	// budget (internal/wal's stallAfter). Arg is the fsync duration in
	// nanoseconds — the device, not the queue, is the suspect.
	KFsyncStall
	// KTornTail: WAL recovery found and truncated a torn final record —
	// the expected signature of a mid-write crash. Arg is the number of
	// records that replayed cleanly before the tear.
	KTornTail
	// KSprayFallback: every spray walk of a Pop failed to claim and the
	// operation fell back to the linear head scan (internal/spray). Arg
	// is the number of spray attempts that came up empty.
	KSprayFallback
	// KLeaseExpire: a lease deadline passed without an Ack and the element
	// was requeued for redelivery (internal/lease). Arg is the element's
	// delivery count after the bump.
	KLeaseExpire
	// KRedeliveryStorm: one expiry sweep requeued a suspicious number of
	// leases at once — the signature of a crashed consumer fleet or a TTL
	// set below the real work time. Arg is the number of leases that
	// expired in the sweep.
	KRedeliveryStorm
	// KLeaseAckRace: an Ack (or Nack/Extend) arrived for a lease that had
	// *just* expired and been requeued — the consumer finished its work
	// but lost the race with the deadline, so the item will be delivered
	// again. Arg is how long after the deadline the ack landed, in
	// nanoseconds.
	KLeaseAckRace
	// KDeadLetter: an element exhausted its delivery budget and was
	// diverted to the dead-letter queue. Arg is its delivery count.
	KDeadLetter
)

// kindNames indexes Kind.String; keep in sync with the constants above.
var kindNames = [...]string{
	KNone:            "none",
	KLockRetry:       "lock.retry",
	KSweepFallback:   "sweep.fallback",
	KElimExchange:    "elim.exchange",
	KServerRead:      "server.read",
	KServerApply:     "server.apply",
	KServerFlush:     "server.flush",
	KServerBatch:     "server.batch",
	KClientSend:      "client.send",
	KClientRecv:      "client.recv",
	KSLOBreach:       "anomaly.slo_breach",
	KBusyReject:      "anomaly.busy_reject",
	KDrainStart:      "anomaly.drain_start",
	KFsyncStall:      "anomaly.fsync_stall",
	KTornTail:        "anomaly.torn_tail",
	KSprayFallback:   "spray.fallback",
	KLeaseExpire:     "lease.expire",
	KRedeliveryStorm: "anomaly.redelivery_storm",
	KLeaseAckRace:    "anomaly.lease_ack_race",
	KDeadLetter:      "anomaly.dead_letter",
}

// String names the kind for dumps and tables.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + itoa(uint64(k)) + ")"
}

// KindOf parses a Kind name produced by String; KNone if unknown.
func KindOf(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return KNone
}

// MarshalJSON writes the kind as its symbolic name, keeping dumps
// self-describing across processes and versions.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the symbolic name (unknown names become KNone
// rather than failing, so newer dumps load in older readers).
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		*k = KindOf(string(b[1 : len(b)-1]))
		return nil
	}
	*k = KNone
	return nil
}

// itoa is a tiny allocation-tolerant uint formatter (only used off the hot
// path, in String for unknown kinds).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Event is one recorded entry. TS is monotonic nanoseconds since the
// recorder's epoch; Trace is zero for untraced structural events.
type Event struct {
	TS    int64  `json:"ts"`
	Kind  Kind   `json:"kind"`
	Trace uint64 `json:"trace,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
}

// slot is one ring cell. Fields are written with plain atomic stores after
// the cursor claim; seq is stored last (claim index + 1), so a reader that
// sees the same non-zero seq before and after reading the payload holds a
// consistent event. All-atomic fields keep concurrent dump/record
// race-detector clean without any lock on the write path.
type slot struct {
	seq   atomic.Uint64
	ts    atomic.Int64
	kind  atomic.Uint64
	trace atomic.Uint64
	arg   atomic.Int64
}

// ringShard is one writer-sharded ring: a private cursor plus its slots.
// The cursor is padded so neighbouring shards never false-share.
type ringShard struct {
	cur   atomic.Uint64
	_     [7]uint64
	slots []slot
}

// Defaults for New's zero parameters.
const (
	// DefaultShards bounds writer spreading; rings are cheap, so a
	// moderate constant covers current core counts.
	DefaultShards = 8
	// DefaultSlots is the per-shard ring capacity (events retained).
	DefaultSlots = 4096
)

// anomalyCapture rate-limits Anomaly's dump captures: a BUSY storm records
// every reject as an event but snapshots the rings at most this often.
const anomalyCapture = 250 * time.Millisecond

// Recorder is the flight recorder. A nil *Recorder is the disabled state:
// every method is a no-op costing one nil check, so probe sites embed a
// possibly-nil recorder directly. Construct with New.
type Recorder struct {
	name   string
	epoch  time.Time // monotonic base; Now() = time.Since(epoch)
	wall   time.Time // wall clock at creation, for dump alignment
	mask   uint64
	shards []ringShard

	anomalies atomic.Uint64
	lastCapNs atomic.Int64

	lastMu sync.Mutex
	last   *Dump
}

// New returns a recorder named name with shardCount rings of slotsPerShard
// events each (zero selects the defaults; slotsPerShard rounds up to a
// power of two). Total retained capacity is shards × slots.
func New(name string, shardCount, slotsPerShard int) *Recorder {
	if shardCount <= 0 {
		shardCount = DefaultShards
	}
	if slotsPerShard <= 0 {
		slotsPerShard = DefaultSlots
	}
	n := 1
	for n < slotsPerShard {
		n <<= 1
	}
	r := &Recorder{
		name:   name,
		epoch:  time.Now(),
		wall:   time.Now(),
		mask:   uint64(n - 1),
		shards: make([]ringShard, shardCount),
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, n)
	}
	return r
}

// Enabled reports whether the recorder records (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Name returns the recorder's name ("" on nil).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Now returns the recorder's monotonic clock: nanoseconds since creation
// (0 on nil, without reading any clock). Callers batching several events
// read it once and use RecordAt.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record stamps the current time and records one event. No-op on nil.
func (r *Recorder) Record(k Kind, trace uint64, arg int64) {
	if r == nil {
		return
	}
	r.write(int64(time.Since(r.epoch)), k, trace, arg)
}

// RecordAt records one event with a caller-supplied timestamp (from Now),
// saving a clock read when several events share one instant. No-op on nil.
func (r *Recorder) RecordAt(ts int64, k Kind, trace uint64, arg int64) {
	if r == nil {
		return
	}
	r.write(ts, k, trace, arg)
}

// write claims the next slot of a goroutine-affine shard (obs.ShardHint,
// the hint the sharded counters spread by) and publishes the event with a
// seqlock-style last store. Allocation-free after the hint pool warms up.
func (r *Recorder) write(ts int64, k Kind, trace uint64, arg int64) {
	s := &r.shards[int(obs.ShardHint())%len(r.shards)]
	i := s.cur.Add(1) - 1
	sl := &s.slots[i&r.mask]
	sl.seq.Store(0) // invalidate for readers while the payload changes
	sl.ts.Store(ts)
	sl.kind.Store(uint64(k))
	sl.trace.Store(trace)
	sl.arg.Store(arg)
	sl.seq.Store(i + 1) // publish
}

// Anomaly records the event like Record, counts it, and captures a dump of
// the rings as they stood — the "black box" pull. Captures are rate-limited
// (one per 250ms) so an anomaly storm costs storms of events, not storms of
// snapshots; the most recent capture is kept and served by LastAnomaly.
// No-op on nil.
func (r *Recorder) Anomaly(k Kind, trace uint64, arg int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.write(now, k, trace, arg)
	r.anomalies.Add(1)
	last := r.lastCapNs.Load()
	if last != 0 && now-last < int64(anomalyCapture) {
		return
	}
	if !r.lastCapNs.CompareAndSwap(last, now) {
		return // another anomaly is capturing right now
	}
	d := r.Snapshot()
	d.Reason = k.String()
	r.lastMu.Lock()
	r.last = &d
	r.lastMu.Unlock()
}

// Anomalies returns how many anomaly events have been recorded (0 on nil).
func (r *Recorder) Anomalies() uint64 {
	if r == nil {
		return 0
	}
	return r.anomalies.Load()
}

// Dump is a point-in-time reading of the rings, ready to marshal to JSON.
type Dump struct {
	// Name is the recorder's name.
	Name string `json:"name"`
	// Wall is the wall-clock time of the recorder's epoch: an event's
	// wall time is approximately Wall + TS.
	Wall time.Time `json:"wall"`
	// TakenTS is the recorder clock when the dump was taken.
	TakenTS int64 `json:"taken_ts"`
	// Written counts every event ever recorded; Written − len(Events) is
	// how many were overwritten (or caught mid-write) before this dump.
	Written uint64 `json:"written"`
	// Anomalies counts anomaly events recorded so far.
	Anomalies uint64 `json:"anomalies"`
	// Reason names the anomaly kind on dumps captured by Anomaly; empty
	// on on-demand dumps.
	Reason string `json:"reason,omitempty"`
	// Events holds the retained events in ascending TS order.
	Events []Event `json:"events"`
}

// Snapshot reads the rings without stopping writers: slots caught
// mid-write (sequence changed underfoot) are dropped rather than waited
// on. The result is sorted by timestamp. On a nil recorder it returns a
// zero Dump.
func (r *Recorder) Snapshot() Dump {
	if r == nil {
		return Dump{}
	}
	d := Dump{
		Name:    r.name,
		Wall:    r.wall,
		TakenTS: int64(time.Since(r.epoch)),
	}
	for si := range r.shards {
		s := &r.shards[si]
		d.Written += s.cur.Load()
		for i := range s.slots {
			sl := &s.slots[i]
			seq1 := sl.seq.Load()
			if seq1 == 0 {
				continue // never written, or mid-write
			}
			ev := Event{
				TS:    sl.ts.Load(),
				Kind:  Kind(sl.kind.Load()),
				Trace: sl.trace.Load(),
				Arg:   sl.arg.Load(),
			}
			if sl.seq.Load() != seq1 {
				continue // overwritten while reading; discard
			}
			d.Events = append(d.Events, ev)
		}
	}
	d.Anomalies = r.anomalies.Load()
	sortEvents(d.Events)
	return d
}

// LastAnomaly returns the dump captured at the most recent anomaly, and
// whether one exists. (false on nil or before the first anomaly).
func (r *Recorder) LastAnomaly() (Dump, bool) {
	if r == nil {
		return Dump{}, false
	}
	r.lastMu.Lock()
	defer r.lastMu.Unlock()
	if r.last == nil {
		return Dump{}, false
	}
	return *r.last, true
}

// sortEvents orders by TS ascending; events arrive nearly sorted per
// shard but interleaved across shards.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
}
