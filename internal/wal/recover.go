package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"skipqueue/internal/flight"
)

// RecoverResult is what a crash (or a clean shutdown) left behind: the
// live multiset plus the counters a restarting Queue needs to continue.
type RecoverResult struct {
	// Items is the recovered live multiset, sorted by (Priority, ID) so a
	// rebuilt backend preserves FIFO order among equal priorities.
	Items []Item
	// NextLSN is the LSN the reopened log must assign to its first record.
	NextLSN uint64
	// NextID is the identity the reopened queue must assign to its first
	// push.
	NextID uint64
	// Records counts the WAL records replayed (snapshot items excluded).
	Records int
	// SnapshotLSN is the cut of the snapshot recovery loaded (0 = none).
	SnapshotLSN uint64
	// SnapshotItems counts the items the loaded snapshot contributed.
	SnapshotItems int
	// TornTail reports that the final segment ended in a torn or invalid
	// record, which recovery truncated away.
	TornTail bool
	// Leases counts elements that were out on a lease at the crash
	// (leased, never acked or requeued) and are therefore being
	// conservatively re-enqueued for redelivery.
	Leases int

	retained  []segment
	snapshot  string // path of the loaded snapshot ("" = none)
	snapMaxID uint64 // largest id in it
}

// replay is the one rule recovery and compaction resolve the live multiset
// by:
//
//	live = (snapshot ∪ pushes) − pops
//
// keyed by element identity. Segment records are applied first; the
// snapshot is then streamed through keep, so neither it nor a segment is
// ever held whole. A pop or ack drops its id's push at once, so pushes
// holds only the segments' still-live pushes. pops exists for keep to drop
// a snapshot copy, so it remembers only ids no larger than the snapshot's
// largest: compaction, which knows that id, then holds about as many pops
// as the snapshot holds items, however many pops its segments carry. The
// rule is insensitive to exactly where the snapshot cut fell relative to
// segment boundaries: records both older and newer than the cut replay to
// the same answer, because no id is pushed or requeued after its pop or
// ack record.
type replay struct {
	pushes map[uint64]Item     // newest push or requeue per id
	pops   map[uint64]struct{} // ids a pop or ack retired
	leased map[uint64]struct{} // ids out on a lease at the last record
	maxID  uint64
	snapID uint64 // no snapshot item this replay reads has a larger id
	slab   []byte // backs the kept values: one allocation per ioBufBytes
}

func newReplay(snapID uint64) *replay {
	return &replay{pushes: map[uint64]Item{}, pops: map[uint64]struct{}{}, leased: map[uint64]struct{}{}, snapID: snapID}
}

func (r *replay) apply(rec record) {
	if rec.id > r.maxID {
		r.maxID = rec.id
	}
	switch rec.op {
	case opPush, opRequeue:
		// A requeue replays exactly like a push: the newest value wins
		// (it carries the freshest delivery count).
		r.pushes[rec.id] = Item{ID: rec.id, Priority: rec.prio, Value: r.copyValue(rec.value)}
		delete(r.leased, rec.id)
	case opPop, opAck:
		// Invariant 2 puts the push before its pop, so it is never
		// re-added once deleted here.
		delete(r.pushes, rec.id)
		if rec.id <= r.snapID {
			r.pops[rec.id] = struct{}{}
		}
		delete(r.leased, rec.id)
	case opLease:
		r.leased[rec.id] = struct{}{}
	}
}

// copyValue copies v out of a reader's reused buffer into the slab.
func (r *replay) copyValue(v []byte) []byte {
	if cap(r.slab)-len(r.slab) < len(v) {
		r.slab = make([]byte, 0, max(ioBufBytes, len(v)))
	}
	r.slab = append(r.slab, v...)
	return r.slab[len(r.slab)-len(v) : len(r.slab) : len(r.slab)]
}

// keep reports whether a snapshot item is live and not superseded by a
// newer push or requeue — the snapshot's half of the live multiset.
func (r *replay) keep(id uint64) bool {
	_, popped := r.pops[id]
	_, pushed := r.pushes[id]
	return !popped && !pushed
}

// readSegment streams one segment's records to fn through a bounded
// buffer. It returns the record count and the byte length of the file's
// valid prefix, header included. err wraps ErrTornRecord for a bad header
// (clean == 0) or an invalid record after clean bytes; any other error is
// an I/O failure.
func readSegment(seg segment, fn func(record)) (records int, clean int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, ioBufBytes)
	hdr := make([]byte, segHdrSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, shortRead(err, "segment header")
	}
	if start, err := parseSegmentHeader(hdr); err != nil || start != seg.start {
		return 0, 0, fmt.Errorf("%w: segment header", ErrTornRecord)
	}
	consumed, records, err := readRecords(r, fn)
	return records, segHdrSize + consumed, err
}

// Recover rebuilds the durable queue state from dir: it replays every
// segment, loads the newest valid snapshot, tolerates a torn final record
// (truncating it), removes stranded snapshot temp files, and returns the
// live multiset by replay's rule. An empty or absent set of files
// recovers to an empty queue. fr, when non-nil, receives a torn-tail
// anomaly capture.
func Recover(dir string, fr *flight.Recorder) (*RecoverResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A crash between writeSnapshot's create and its rename strands the
	// temp file; it never holds anything a renamed snapshot does not.
	tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap.tmp"))
	for _, p := range tmps {
		os.Remove(p)
	}
	segs, snaps, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	res := &RecoverResult{NextLSN: 1, NextID: 1}
	// The snapshot is chosen after the segments are read, so any id may
	// be in it.
	r := newReplay(math.MaxUint64)
	maxLSN := uint64(0)

	for i, seg := range segs {
		final := i == len(segs)-1
		records, clean, serr := readSegment(seg, r.apply)
		if serr != nil && !errors.Is(serr, ErrTornRecord) {
			return nil, fmt.Errorf("wal: reading %s: %w", seg.path, serr)
		}
		if serr != nil && clean == 0 {
			if !final {
				return nil, fmt.Errorf("wal: %s: bad segment header (mid-log corruption)", seg.path)
			}
			// A final segment with a torn header is a rotation the crash
			// interrupted before any record landed; it holds nothing.
			res.TornTail = true
			os.Remove(seg.path)
			segs = segs[:i]
			break
		}
		res.Records += records
		if end := seg.start + uint64(records) - 1; records > 0 && end > maxLSN {
			maxLSN = end
		}
		if serr == nil && records == 0 && final {
			// An empty final segment (a rotation the crash caught before
			// its first flush, or an idle clean shutdown). Remove it so the
			// reopened log can reuse its LSN for a fresh segment name.
			os.Remove(seg.path)
			segs = segs[:i]
			break
		}
		if serr != nil {
			if !final {
				return nil, fmt.Errorf("wal: %s: %v (mid-log corruption)", seg.path, serr)
			}
			res.TornTail = true
			if records == 0 {
				// Nothing valid in the final segment; remove it so the
				// reopened log can reuse its name.
				os.Remove(seg.path)
				segs = segs[:i]
			} else if terr := os.Truncate(seg.path, clean); terr != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, terr)
			}
			break
		}
	}
	if res.TornTail {
		fr.Anomaly(flight.KTornTail, 0, int64(res.Records))
		syncDir(dir)
	}

	// Load the newest snapshot that reads back whole. An invalid or
	// unreadable one is skipped (the atomic rename makes that near-
	// impossible, but disks bit-rot) and left on disk; snapshots older than
	// the loaded one are redundant and removed.
	for i := len(snaps) - 1; i >= 0; i-- {
		res.Items = res.Items[:0]
		maxID := uint64(0)
		cut, n, err := readSnapshot(snaps[i], func(it Item) {
			maxID = max(maxID, it.ID)
			if r.keep(it.ID) {
				res.Items = append(res.Items, Item{ID: it.ID, Priority: it.Priority, Value: r.copyValue(it.Value)})
			}
		})
		if err == nil {
			res.snapshot, res.snapMaxID = snaps[i], maxID
			res.SnapshotLSN, res.SnapshotItems = cut, n
			for _, old := range snaps[:i] {
				os.Remove(old)
			}
			break
		}
	}
	if res.snapshot == "" {
		res.Items = res.Items[:0]
	}

	res.Leases = len(r.leased)
	for _, it := range r.pushes {
		res.Items = append(res.Items, it)
	}
	sort.Slice(res.Items, func(i, j int) bool {
		if res.Items[i].Priority != res.Items[j].Priority {
			return res.Items[i].Priority < res.Items[j].Priority
		}
		return res.Items[i].ID < res.Items[j].ID
	})

	res.NextLSN = max(maxLSN, res.SnapshotLSN) + 1
	res.NextID = max(r.maxID, res.snapMaxID) + 1
	res.retained = segs
	return res, nil
}
