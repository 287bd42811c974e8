package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
	// The snapshot compaction starts from and its largest id; guarded by
	// snapMu.
	snap      string
	snapMaxID uint64
	closed    atomic.Bool
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
	q := &Queue{inner: inner, snap: rec.snapshot, snapMaxID: rec.snapMaxID}

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
	for _, it := range rec.Items {
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
	q.inner.Push(prio, encodeValue(token, value))
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
// recovered or wrote and every sealed segment by Recover's rule, streaming
// both, and writes the survivors as the snapshot at the last sealed LSN.
// The cut is a segment boundary, so every record at or below it was read,
// and dropping the sealed segments loses nothing. Any failure to read
// returns before a segment or snapshot is deleted. Caller holds snapMu.
func (q *Queue) compact() error {
	dir := q.log.cfg.Dir
	segs, cut := q.log.sealed()
	r := newReplay(q.snapMaxID)
	for _, seg := range segs {
		if _, _, err := readSegment(seg, r.apply); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", seg.path, err)
		}
	}
	// The snapshot is streamed twice, to count its survivors for the new
	// file's header and then to copy them, so it is never held whole.
	prev := q.snap
	kept := 0
	streamPrev := func(fn func(Item)) error {
		if prev == "" {
			return nil
		}
		if _, _, err := readSnapshot(prev, fn); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", prev, err)
		}
		return nil
	}
	if err := streamPrev(func(it Item) {
		if r.keep(it.ID) {
			kept++
		}
	}); err != nil {
		return err
	}
	maxID := uint64(0)
	n, err := writeSnapshot(dir, cut, kept+len(r.pushes), func(emit func(Item)) error {
		if err := streamPrev(func(it Item) {
			if r.keep(it.ID) {
				maxID = max(maxID, it.ID)
				emit(it)
			}
		}); err != nil {
			return err
		}
		for _, it := range r.pushes {
			maxID = max(maxID, it.ID)
			emit(it)
		}
		return nil
	})
	if err != nil {
		return err
	}
	q.snap, q.snapMaxID = filepath.Join(dir, snapshotName(cut)), maxID
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
