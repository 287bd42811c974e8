package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"skipqueue/internal/multiset"
)

// idSize frames the element identity into the value stored in the
// in-memory backend: the value followed by its 8-byte id. Identity must
// travel *through* the backend so a pop knows which durable element it
// consumed without any shadow lookup on the hot path. As a suffix, the id
// fits in a recovered value's spare capacity, so a restart copies it once.
const idSize = 8

// encodeValue appends the stored form of (id, value) to dst, growing it
// at most once.
func encodeValue(dst []byte, id uint64, value []byte) []byte {
	dst = slices.Grow(dst, len(value)+idSize)
	return binary.BigEndian.AppendUint64(append(dst, value...), id)
}

// decodeValue splits a stored form. The value's capacity ends at its
// length, so appending to it never reaches the id.
func decodeValue(stored []byte) (uint64, []byte) {
	n := len(stored) - idSize
	if n < 0 {
		// Every stored value came from encodeValue; this is pure defense.
		return 0, stored
	}
	return binary.BigEndian.Uint64(stored[n:]), stored[:n:n]
}

// Queue is the durable decorator around an in-memory multiset.Queue: every
// Push and successful Pop is WAL-logged, and Commit exposes the
// group-commit barrier the server calls before ACKing a batch. The live
// multiset lives only in the backend and the log; snapshots are compacted
// from the log itself. Construct with OpenQueue. All methods are safe for
// concurrent use.
type Queue struct {
	log    *Log
	inner  multiset.Queue[[]byte]
	seq    atomic.Uint64
	snapMu sync.Mutex // one compaction at a time
	snap   string     // the snapshot compaction starts from; guarded by snapMu
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
	q := &Queue{inner: inner, snap: rec.snapshot}

	snapSegs := cfg.SnapshotSegments
	if snapSegs == 0 {
		snapSegs = 4
	}
	// Compact once the segment count passes the trigger: after a size
	// rotation, and at open, where restarts that never filled a segment
	// may have piled them up.
	cfg.onRotate = func(segments int) {
		if snapSegs > 0 && segments > snapSegs {
			go q.maybeSnapshot()
		}
	}

	q.log, err = Open(cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	cfg.onRotate(q.log.Segments())
	rebuild(inner, rec.Items)
	q.seq.Store(rec.NextID - 1)
	return q, rec, nil
}

// rebuild enqueues the recovered items, sorted by (Priority, ID), into
// inner: in one pass when inner is an empty multiset.Loader, else one
// Push at a time. replay.copyValue wrote each Value's id in its spare
// capacity, so the stored form is the Value extended over it: rebuild
// neither copies a value nor touches its bytes.
func rebuild(inner multiset.Queue[[]byte], items []Item) {
	stored := func(v []byte) []byte { return v[:len(v)+idSize] }
	if l, ok := inner.(multiset.Loader[[]byte]); ok && inner.Len() == 0 {
		l.Load(len(items), func(i int) (int64, []byte) {
			return items[i].Priority, stored(items[i].Value)
		})
		return
	}
	for _, it := range items {
		inner.Push(it.Priority, stored(it.Value))
	}
}

// Log returns the underlying log (its probe set feeds the admin surface).
func (q *Queue) Log() *Log { return q.log }

// Push logs and enqueues one element. The element is ACK-durable once a
// following Commit returns.
func (q *Queue) Push(priority int64, value []byte) {
	id := q.seq.Add(1)
	q.log.AppendPush(id, priority, value)
	q.inner.Push(priority, encodeValue(nil, id, value))
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
	q.log.AppendPop(id)
	return prio, value, true
}

// LeaseMin dequeues one element *without* retiring it durably: the
// element leaves the in-memory backend (no other consumer can claim it)
// but it appends no record, so compaction keeps it in the snapshot and a
// crash resurrects it — exactly the conservative-redelivery contract a
// lease needs. The returned token is the element's durable identity; the
// caller must eventually pass it to Ack or Requeue.
func (q *Queue) LeaseMin() (token uint64, prio int64, value []byte, ok bool) {
	prio, stored, ok := q.inner.Pop()
	if !ok {
		return 0, 0, nil, false
	}
	id, value := decodeValue(stored)
	return id, prio, value, true
}

// Ack durably retires a leased element: the consumer finished its work.
func (q *Queue) Ack(token uint64) {
	q.log.AppendAck(token)
}

// Requeue returns a leased element to the queue at prio with a (possibly
// rewritten) value — the redelivery path. The record is appended before
// the element is visible to a Pop, so its pop record always follows it.
func (q *Queue) Requeue(token uint64, prio int64, value []byte) {
	q.log.AppendRequeue(token, prio, value)
	q.inner.Push(prio, encodeValue(nil, token, value))
}

// Rewrite durably updates a leased element's value and priority *without*
// returning it to the in-memory queue — the dead-letter divert path: the
// element stays claimed (no consumer can pop it) but its rewritten value
// (e.g. a bumped delivery header) must survive a crash. The record replays
// like a requeue, so a restart resurrects the element with the NEW value
// and the first pop attempt re-diverts it.
func (q *Queue) Rewrite(token uint64, prio int64, value []byte) {
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

// Commit is the server's durable-ACK barrier: it returns once every
// operation applied before the call is fsynced (sync mode) or immediately
// (async mode).
func (q *Queue) Commit() error { return q.log.Commit() }

// Sync forces everything appended so far to disk regardless of mode.
func (q *Queue) Sync() error { return q.log.Sync() }

// SnapshotNow seals the active segment, compacts the log into a snapshot
// and deletes the segments it makes redundant. Safe to call at any time,
// including under full load; concurrent calls serialize.
func (q *Queue) SnapshotNow() error {
	q.snapMu.Lock()
	defer q.snapMu.Unlock()
	if err := q.log.seal(); err != nil {
		return err
	}
	return q.compact()
}

// compact is log compaction: it replays the snapshot the queue last
// recovered or wrote and every sealed segment by Recover's rule (replay),
// and writes the survivors, unsorted, as the snapshot at the last sealed
// LSN.
// The cut is a segment boundary, so every record at or below it was read,
// and dropping the sealed segments loses nothing. Any failure to read
// returns before a segment or snapshot is deleted. Caller holds snapMu.
func (q *Queue) compact() error {
	dir := q.log.cfg.Dir
	segs, cut := q.log.sealed()
	r := newReplay()
	prev := q.snap
	if prev != "" {
		if _, _, err := readSnapshot(prev, r.reserve, r.add); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", prev, err)
		}
	}
	r.snapID = r.maxID
	for _, seg := range segs {
		if _, _, err := readSegment(seg, r.apply); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", seg.path, err)
		}
	}
	r.compact()
	n, err := writeSnapshot(dir, cut, len(r.items), func(emit func(Item)) error {
		for _, it := range r.items {
			emit(it)
		}
		return nil
	})
	if err != nil {
		return err
	}
	q.snap = filepath.Join(dir, snapshotName(cut))
	q.log.obs.snapshots.Inc()
	q.log.obs.snapshotBytes.Add(uint64(n))
	q.log.dropSegmentsBefore(cut)
	if prev != "" && prev != q.snap {
		os.Remove(prev)
	}
	return nil
}

// maybeSnapshot is the background compaction of the segments already
// sealed: skip when a compaction is in flight or the queue is closing. A
// failure is counted (snapshots.failed) and retried on the next rotation;
// it deletes nothing.
func (q *Queue) maybeSnapshot() {
	if !q.snapMu.TryLock() {
		return
	}
	defer q.snapMu.Unlock()
	if !q.closed.Load() && q.compact() != nil {
		q.log.obs.snapFailed.Inc()
	}
}

// Close closes the log, which makes everything appended durable, then
// compacts every segment into a final snapshot — the drain path's last
// durability step. The in-memory backend is left intact.
func (q *Queue) Close() error {
	if q.closed.Swap(true) {
		return nil
	}
	err := q.log.Close()
	q.snapMu.Lock()
	defer q.snapMu.Unlock()
	if cerr := q.compact(); err == nil {
		err = cerr
	}
	return err
}
