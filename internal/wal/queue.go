package wal

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"skipqueue/internal/multiset"
)

// idPrefixSize frames the element identity into the value stored in the
// in-memory backend: Queue.Push prepends the 8-byte id, Pop/Peek strip it.
// Identity must travel *through* the backend so a pop knows which durable
// element it consumed without any shadow lookup on the hot path.
const idPrefixSize = 8

func encodeValue(id uint64, value []byte) []byte {
	buf := make([]byte, idPrefixSize+len(value))
	binary.BigEndian.PutUint64(buf, id)
	copy(buf[idPrefixSize:], value)
	return buf
}

func decodeValue(stored []byte) (uint64, []byte) {
	if len(stored) < idPrefixSize {
		// Every stored value came from encodeValue; this is pure defense.
		return 0, stored
	}
	return binary.BigEndian.Uint64(stored), stored[idPrefixSize:]
}

// indexShards spreads the live index over independently locked shards so
// the index never becomes the contention point the backend avoids being.
// Must be a power of two.
const indexShards = 64

// index is the live multiset: every element currently in the queue, keyed
// by identity. It is the Range/Drainer hook snapshots are cut from — a
// per-shard-atomic scan plus the idempotent WAL replay reconstructs an
// exact cut without ever pausing the data path.
type index struct {
	shards [indexShards]struct {
		mu sync.Mutex
		m  map[uint64]Item
	}
}

func newIndex() *index {
	ix := &index{}
	for i := range ix.shards {
		ix.shards[i].m = map[uint64]Item{}
	}
	return ix
}

func (ix *index) add(it Item) {
	s := &ix.shards[it.ID&(indexShards-1)]
	s.mu.Lock()
	s.m[it.ID] = it
	s.mu.Unlock()
}

func (ix *index) remove(id uint64) {
	s := &ix.shards[id&(indexShards-1)]
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// rangeItems calls f for every live element; each shard is visited
// atomically, the scan as a whole is not a consistent cut (WAL replay
// makes up the difference — see the package comment's invariant 3).
func (ix *index) rangeItems(f func(Item) bool) {
	for i := range ix.shards {
		s := &ix.shards[i]
		s.mu.Lock()
		for _, it := range s.m {
			if !f(it) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Queue is the durable decorator around an in-memory multiset.Queue: every
// Push and successful Pop is WAL-logged, the live multiset is indexed for
// snapshotting, and Commit exposes the group-commit barrier the server
// calls before ACKing a batch. Construct with OpenQueue. All methods are
// safe for concurrent use.
type Queue struct {
	log    *Log
	inner  multiset.Queue[[]byte]
	seq    atomic.Uint64
	idx    *index
	snapMu sync.Mutex // one snapshot writer at a time
	closed atomic.Bool
}

// OpenQueue recovers the durable state in cfg.Dir, rebuilds it into inner,
// opens the log for appending, and returns the durable queue. The returned
// RecoverResult reports what recovery found; a fresh directory recovers to
// an empty queue.
func OpenQueue(cfg Config, inner multiset.Queue[[]byte]) (*Queue, *RecoverResult, error) {
	rec, err := Recover(cfg.Dir, cfg.Flight)
	if err != nil {
		return nil, nil, err
	}
	q := &Queue{inner: inner, idx: newIndex()}

	snapSegs := cfg.SnapshotSegments
	if snapSegs == 0 {
		snapSegs = 4
	}
	userRotate := cfg.OnRotate
	cfg.OnRotate = func(segments int) {
		if userRotate != nil {
			userRotate(segments)
		}
		if snapSegs > 0 && segments > snapSegs {
			go q.maybeSnapshot()
		}
	}

	q.log, err = Open(cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	for _, it := range rec.Items {
		q.idx.add(it)
		inner.Push(it.Priority, encodeValue(it.ID, it.Value))
	}
	q.seq.Store(rec.NextID - 1)
	return q, rec, nil
}

// Log returns the underlying log (its probe set feeds the admin surface).
func (q *Queue) Log() *Log { return q.log }

// Push logs and enqueues one element. The element is ACK-durable once a
// following Commit returns.
func (q *Queue) Push(priority int64, value []byte) {
	id := q.seq.Add(1)
	// Index before logging: any record the snapshot cut can cover is
	// already visible to the snapshot scan (invariant 3).
	q.idx.add(Item{ID: id, Priority: priority, Value: value})
	q.log.AppendPush(id, priority, value)
	q.inner.Push(priority, encodeValue(id, value))
}

// Pop dequeues one element and logs its consumption. The pop is
// ACK-durable once a following Commit returns; until then a crash
// legitimately resurrects the element (it was never acknowledged).
func (q *Queue) Pop() (int64, []byte, bool) {
	prio, stored, ok := q.inner.Pop()
	if !ok {
		return 0, nil, false
	}
	id, value := decodeValue(stored)
	// Index removal before logging, mirroring Push's ordering.
	q.idx.remove(id)
	q.log.AppendPop(id)
	return prio, value, true
}

// LeaseMin dequeues one element *without* retiring it durably: the
// element leaves the in-memory backend (no other consumer can claim it)
// but stays in the live index, so snapshots still cover it and a crash
// resurrects it — exactly the conservative-redelivery contract a lease
// needs. The returned token is the element's durable identity; the
// caller must eventually pass it to Ack or Requeue. The lease record it
// logs is liveness-neutral on replay and exists so recovery can report
// in-flight leases (RecoverResult.Leases).
func (q *Queue) LeaseMin() (token uint64, prio int64, value []byte, ok bool) {
	prio, stored, ok := q.inner.Pop()
	if !ok {
		return 0, 0, nil, false
	}
	id, value := decodeValue(stored)
	q.log.AppendLease(id)
	return id, prio, value, true
}

// Ack durably retires a leased element: the consumer finished its work.
// Mirrors Pop's index-before-logging ordering.
func (q *Queue) Ack(token uint64) {
	q.idx.remove(token)
	q.log.AppendAck(token)
}

// Requeue returns a leased element to the queue at prio with a (possibly
// rewritten) value — the redelivery path. The index update lands before
// the log record, like Push, so any snapshot cut covering the record has
// already seen the new value.
func (q *Queue) Requeue(token uint64, prio int64, value []byte) {
	q.idx.add(Item{ID: token, Priority: prio, Value: value})
	q.log.AppendRequeue(token, prio, value)
	q.inner.Push(prio, encodeValue(token, value))
}

// Rewrite durably updates a leased element's value and priority *without*
// returning it to the in-memory queue — the dead-letter divert path: the
// element stays claimed (no consumer can pop it) but its rewritten value
// (e.g. a bumped delivery header) must survive a crash. The record replays
// like a requeue, so a restart resurrects the element with the NEW value
// and the first pop attempt re-diverts it.
func (q *Queue) Rewrite(token uint64, prio int64, value []byte) {
	q.idx.add(Item{ID: token, Priority: prio, Value: value})
	q.log.AppendRequeue(token, prio, value)
}

// Peek returns the minimum element without consuming it (no log traffic).
func (q *Queue) Peek() (int64, []byte, bool) {
	prio, stored, ok := q.inner.Peek()
	if !ok {
		return 0, nil, false
	}
	_, value := decodeValue(stored)
	return prio, value, true
}

// Len returns the number of live elements.
func (q *Queue) Len() int { return q.inner.Len() }

// Range calls f for every live element until f returns false — the
// backend enumeration hook the snapshot writer (and any future export
// surface) consumes. The scan never blocks the data path.
func (q *Queue) Range(f func(Item) bool) { q.idx.rangeItems(f) }

// Commit is the server's durable-ACK barrier: it returns once every
// operation applied before the call is fsynced (sync mode) or immediately
// (async mode).
func (q *Queue) Commit() error { return q.log.Commit() }

// Sync forces everything appended so far to disk regardless of mode.
func (q *Queue) Sync() error { return q.log.Sync() }

// SnapshotNow writes a snapshot of the live multiset and deletes the
// prefix of segments it makes redundant. Safe to call at any time,
// including under full load; concurrent calls serialize.
func (q *Queue) SnapshotNow() error {
	q.snapMu.Lock()
	defer q.snapMu.Unlock()
	return q.snapshotLocked()
}

func (q *Queue) snapshotLocked() error {
	// The cut is captured before the scan: every record ≤ cut describes an
	// element the scan is guaranteed to see (or a pop whose record > cut
	// survives in a retained segment). See docs/PERSISTENCE.md.
	cut := q.log.LastLSN()
	var items []Item
	q.idx.rangeItems(func(it Item) bool {
		items = append(items, it)
		return true
	})
	n, err := writeSnapshot(q.log.cfg.Dir, cut, items)
	if err != nil {
		return err
	}
	q.log.obs.snapshots.Inc()
	q.log.obs.snapshotBytes.Add(uint64(n))
	q.log.dropSegmentsBefore(cut)
	if _, snaps, lerr := listDir(q.log.cfg.Dir); lerr == nil {
		dropSnapshotsBefore(snaps)
	}
	return nil
}

// maybeSnapshot is the rotation-triggered compaction: skip when a snapshot
// is already in flight or the queue is closing.
func (q *Queue) maybeSnapshot() {
	if q.closed.Load() {
		return
	}
	if !q.snapMu.TryLock() {
		return
	}
	defer q.snapMu.Unlock()
	q.snapshotLocked()
}

// Close makes everything appended durable, writes a final snapshot, and
// closes the log — the drain path's last durability step. The in-memory
// backend is left intact.
func (q *Queue) Close() error {
	if q.closed.Swap(true) {
		return nil
	}
	err := q.log.Sync()
	if serr := q.SnapshotNow(); err == nil {
		err = serr
	}
	if cerr := q.log.Close(); err == nil {
		err = cerr
	}
	return err
}
