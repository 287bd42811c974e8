package wal

import (
	"fmt"
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

	retained []segment
}

// Recover rebuilds the durable queue state from dir: it loads the newest
// valid snapshot, replays every segment, tolerates a torn final record
// (truncating it), removes stranded snapshot temp files, and returns the
// live multiset. An empty or absent set of files recovers to an empty
// queue. fr, when non-nil, receives a torn-tail anomaly capture.
//
// Replay is two-pass and idempotent: it first collects every push and pop
// across all retained segments, then resolves
//
//	live = (snapshot ∪ pushes) − pops
//
// keyed by element identity. This makes recovery insensitive to exactly
// where the snapshot cut fell relative to segment boundaries — records
// both older and newer than the cut replay to the same answer.
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

	// Newest valid snapshot wins; invalid or unreadable ones are skipped
	// (the atomic rename makes them near-impossible, but disks bit-rot).
	snapItems := map[uint64]Item{}
	for i := len(snaps) - 1; i >= 0; i-- {
		cut, items, serr := readSnapshot(snaps[i])
		if serr != nil {
			continue
		}
		res.SnapshotLSN = cut
		res.SnapshotItems = len(items)
		for _, it := range items {
			snapItems[it.ID] = it
		}
		break
	}
	dropSnapshotsBefore(snaps)

	pushes := map[uint64]Item{}
	pops := map[uint64]struct{}{}
	leased := map[uint64]struct{}{}
	maxLSN := res.SnapshotLSN
	maxID := uint64(0)
	for _, it := range snapItems {
		if it.ID > maxID {
			maxID = it.ID
		}
	}

	for i, seg := range segs {
		final := i == len(segs)-1
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", seg.path, rerr)
		}
		start, herr := parseSegmentHeader(data)
		if herr != nil || start != seg.start {
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
		consumed, records, serr := scanRecords(data[segHdrSize:], func(rec record) bool {
			if rec.id > maxID {
				maxID = rec.id
			}
			switch rec.op {
			case opPush, opRequeue:
				// A requeue replays exactly like a push: the newest value
				// wins (it carries the freshest delivery count).
				pushes[rec.id] = Item{ID: rec.id, Priority: rec.prio, Value: append([]byte(nil), rec.value...)}
				delete(leased, rec.id)
			case opPop:
				pops[rec.id] = struct{}{}
				delete(leased, rec.id)
			case opLease:
				leased[rec.id] = struct{}{}
			case opAck:
				pops[rec.id] = struct{}{}
				delete(leased, rec.id)
			}
			return true
		})
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
			} else if terr := os.Truncate(seg.path, int64(segHdrSize+consumed)); terr != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, terr)
			}
			break
		}
	}
	if res.TornTail {
		fr.Anomaly(flight.KTornTail, 0, int64(res.Records))
		syncDir(dir)
	}

	for id := range pops {
		delete(snapItems, id)
		delete(pushes, id)
	}
	res.Leases = len(leased)
	for id, it := range pushes {
		snapItems[id] = it
	}
	res.Items = make([]Item, 0, len(snapItems))
	for _, it := range snapItems {
		res.Items = append(res.Items, it)
	}
	sort.Slice(res.Items, func(i, j int) bool {
		if res.Items[i].Priority != res.Items[j].Priority {
			return res.Items[i].Priority < res.Items[j].Priority
		}
		return res.Items[i].ID < res.Items[j].ID
	})

	res.NextLSN = maxLSN + 1
	res.NextID = maxID + 1
	res.retained = segs
	return res, nil
}
