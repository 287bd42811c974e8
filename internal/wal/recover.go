package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"skipqueue/internal/flight"
)

// RecoverResult is what a crash (or a clean shutdown) left behind: the
// live multiset plus the counters a restarting Queue needs to continue.
type RecoverResult struct {
	// Items is the recovered live multiset, sorted by (Priority, ID) so a
	// rebuilt backend preserves FIFO order among equal priorities. A
	// rebuilt backend stores each Value's id in its capacity: never append.
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

	retained []segment
	snapshot string // path of the loaded snapshot ("" = none)
}

// replay is the one rule recovery and compaction resolve the live multiset
// by:
//
//	live = (snapshot ∪ pushes) − pops
//
// keyed by element identity, the newest push or requeue of an id winning.
// The snapshot is read first and the segments after it, in log order, all
// into one flat slice: a push or requeue appends, a pop or ack only appends
// its id to dead, and a requeue (or a push of an id the snapshot may hold)
// appends its id to newest, whose last entry in items is its freshest.
// compact drops the dead and superseded entries in place and forgets both
// side sets, because no id is pushed or requeued after its pop or ack
// record. It runs whenever the side sets outgrow the slice the last
// compaction kept, so a replay holds about the live sets at the snapshot's
// cut and at the end of the log. The rule is insensitive to exactly where
// the snapshot cut fell relative to segment boundaries: a segment record
// older than the cut only repeats what the snapshot holds, and a newer one
// supersedes it.
type replay struct {
	items  []Item   // snapshot items, then pushes and requeues in log order
	dead   []uint64 // ids a pop or ack retired since the last compaction
	newest []uint64 // ids whose last entry in items may supersede an older copy
	snapID uint64   // the snapshot's largest id: a push at or below it may repeat an item
	maxID  uint64
	kept   int    // len(items) after the last compaction or the snapshot
	slab   []byte // backs the values and their ids: one allocation per ioBufBytes
}

// minCompact is the side-set size below which a replay never compacts.
const minCompact = 1024

func newReplay() *replay { return &replay{} }

// add appends one snapshot item, whose Value is valid only during the call.
// Snapshot items are distinct and live, so they count as kept by a
// compaction.
func (r *replay) add(it Item) {
	r.maxID = max(r.maxID, it.ID)
	r.items = append(r.items, Item{ID: it.ID, Priority: it.Priority, Value: r.copyValue(it.ID, it.Value)})
	r.kept = len(r.items)
}

// reserve makes room for n more items at once.
func (r *replay) reserve(n int) { r.items = slices.Grow(r.items, n) }

// reset forgets every item, for a snapshot that failed to read back whole.
func (r *replay) reset() {
	clear(r.items)
	r.items, r.maxID, r.kept = r.items[:0], 0, 0
}

func (r *replay) apply(rec record) {
	r.maxID = max(r.maxID, rec.id)
	switch rec.op {
	case opPush, opRequeue:
		// A requeue replays exactly like a push: the newest value wins
		// (it carries the freshest delivery count).
		if rec.op == opRequeue || rec.id <= r.snapID {
			r.newest = append(r.newest, rec.id)
		}
		r.items = append(r.items, Item{ID: rec.id, Priority: rec.prio, Value: r.copyValue(rec.id, rec.value)})
	case opPop, opAck:
		r.dead = append(r.dead, rec.id)
	}
	// opLease, which older logs carry, retires nothing: a leased element
	// stays live until its ack.
	if len(r.dead)+len(r.newest) > max(r.kept, minCompact) {
		r.compact()
	}
}

// compact drops, in place, every entry a pop or ack retired or a newer
// copy superseded, and forgets the side sets. It walks items from the end,
// so the first entry of an id in newest that it meets is the freshest: it
// keeps that one and marks the id dead for the older copies.
func (r *replay) compact() {
	if len(r.dead)+len(r.newest) > 0 {
		s, w := newIDSet(r.dead, r.newest), len(r.items)
		for i := len(r.items) - 1; i >= 0; i-- {
			if st := s.get(r.items[i].ID); st&idDead != 0 {
				continue
			} else if st != 0 {
				s.set(r.items[i].ID, idDead)
			}
			w--
			r.items[w] = r.items[i]
		}
		n := copy(r.items, r.items[w:])
		clear(r.items[n:])
		r.items, r.dead, r.newest = r.items[:n], r.dead[:0], r.newest[:0]
	}
	r.kept = len(r.items)
}

// idSet is compact's state per id: a byte per id over the ids' [lo, hi]
// when that range is dense (at most 4 words per id, plus 16), as the ids
// one counter hands out are, and a map otherwise, so that one very old id
// costs one entry, not a range.
type idSet struct {
	lo    uint64
	dense []uint8
	m     map[uint64]uint8
}

const (
	idDead   = 1 // a pop or ack retired the id, or compact kept a fresher copy
	idNewest = 2 // the id's last entry in items supersedes its older copies
)

func newIDSet(dead, newest []uint64) *idSet {
	all := slices.Concat(dead, newest)
	lo, hi, n := slices.Min(all), slices.Max(all), uint64(len(all))
	s := &idSet{lo: lo}
	if (hi-lo)/8 < 4*n+16 {
		s.dense = make([]uint8, hi-lo+1)
	} else {
		s.m = make(map[uint64]uint8, n)
	}
	for st, ids := range [...][]uint64{idDead: dead, idNewest: newest} {
		for _, id := range ids {
			s.set(id, uint8(st))
		}
	}
	return s
}

func (s *idSet) get(id uint64) uint8 {
	if i := id - s.lo; s.m == nil && i < uint64(len(s.dense)) { // an id below lo wraps
		return s.dense[i]
	}
	return s.m[id]
}

func (s *idSet) set(id uint64, st uint8) {
	if s.m == nil {
		s.dense[id-s.lo] |= st
	} else {
		s.m[id] |= st
	}
}

// copyValue copies v out of a reader's reused buffer into the slab, in
// encodeValue's layout, and returns the copy with the id in its spare
// capacity.
func (r *replay) copyValue(id uint64, v []byte) []byte {
	if n := len(v) + idSize; cap(r.slab)-len(r.slab) < n {
		r.slab = make([]byte, 0, max(ioBufBytes, n))
	}
	r.slab = encodeValue(r.slab, id, v)
	end := len(r.slab) - idSize
	return r.slab[end-len(v) : end : len(r.slab)]
}

// sortItems orders items as a rebuilt backend must hold them: by priority,
// and by id, which is push order, among equal priorities. It is an in-place
// MSD radix sort on the 16-byte key (the priority with its sign bit flipped,
// then the id), one byte a pass. A range starts at the first byte on which
// its items disagree, and a range of insertionMax items or fewer finishes
// with an insertion sort. It allocates nothing: a pass's two count arrays
// live on the stack, and the recursion is at most 16 passes deep.
func sortItems(s []Item) {
	if len(s) <= insertionMax {
		insertionSort(s)
		return
	}
	var dp, di uint64 // the key bits on which some item differs from s[0]
	for i := range s {
		dp |= uint64(s[i].Priority ^ s[0].Priority)
		di |= s[i].ID ^ s[0].ID
	}
	var d int
	switch {
	case dp != 0:
		d = bits.LeadingZeros64(dp) / 8
	case di != 0:
		d = 8 + bits.LeadingZeros64(di)/8
	default:
		return // every key is equal
	}
	var next, end [256]int
	for i := range s {
		end[keyByte(&s[i], d)]++
	}
	sum := 0
	for b, n := range end {
		next[b] = sum
		sum += n
		end[b] = sum
	}
	// Fill each bucket in turn: an item that belongs elsewhere is swapped
	// to its bucket's next free place, until the place holds its own.
	for b := range next {
		for next[b] < end[b] {
			it := s[next[b]]
			for k := keyByte(&it, d); int(k) != b; k = keyByte(&it, d) {
				it, s[next[k]] = s[next[k]], it
				next[k]++
			}
			s[next[b]] = it
			next[b]++
		}
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			sortItems(s[lo:hi])
		}
		lo = hi
	}
}

// insertionMax is the range length sortItems hands to insertionSort.
const insertionMax = 16

// keyByte returns byte d, counted from the most significant, of the
// item's 16-byte sort key.
func keyByte(it *Item, d int) uint8 {
	if d < 8 {
		return uint8((uint64(it.Priority) ^ 1<<63) >> (56 - 8*d))
	}
	return uint8(it.ID >> (120 - 8*d))
}

func insertionSort(s []Item) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && itemLess(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// itemLess compares in place: taking Items by value copies twice the bytes
// it reads.
func itemLess(a, b *Item) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.ID < b.ID
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

// livePushes counts the segments' pushes less their pops and acks from the
// record frames alone, so that replay can make room for them in items at
// once instead of regrowing it. Bodies are neither read nor checked: the
// count only sizes memory, and the files' bytes bound it.
func livePushes(segs []segment) int {
	n := 0
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			continue
		}
		r := bufio.NewReaderSize(f, ioBufBytes)
		r.Discard(segHdrSize) // a short file fails the first Peek
		for {
			hdr, err := r.Peek(recordHdrSize + 1)
			if err != nil {
				break
			}
			body, err := frameLen(hdr)
			if err != nil {
				break
			}
			switch hdr[recordHdrSize] {
			case opPush:
				n++
			case opPop, opAck:
				n--
			}
			if _, err := r.Discard(recordHdrSize + body); err != nil {
				break
			}
		}
		f.Close()
	}
	return max(n, 0)
}

// Recover rebuilds the durable queue state from dir: it loads the newest
// valid snapshot, replays every segment, tolerates a torn final record
// (truncating it), removes stranded snapshot temp files, and returns the
// live multiset by replay's rule, sorted once. An empty or absent set of
// files recovers to an empty queue. fr, when non-nil, receives a torn-tail
// anomaly capture.
func Recover(dir string, fr *flight.Recorder) (*RecoverResult, error) {
	res, err := replayDir(dir, fr)
	if err != nil {
		return nil, err
	}
	sortItems(res.Items)
	return res, nil
}

// replayDir is Recover up to the sort: res.Items holds the live multiset
// in the order replay left it.
func replayDir(dir string, fr *flight.Recorder) (*RecoverResult, error) {
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
	r := newReplay()
	// items takes the snapshot's items and the segments' net pushes, grown
	// once to hold both.
	pushes := livePushes(segs)
	reserve := func(n int) { r.reserve(n + pushes) }

	// Load the newest snapshot that reads back whole. An invalid or
	// unreadable one is skipped (the atomic rename makes that near-
	// impossible, but disks bit-rot) and left on disk; snapshots older than
	// the loaded one are redundant and removed once the segments replayed.
	older := snaps[:0]
	for i := len(snaps) - 1; i >= 0; i-- {
		r.reset()
		cut, n, err := readSnapshot(snaps[i], reserve, r.add)
		if err == nil {
			res.snapshot, older = snaps[i], snaps[:i]
			res.SnapshotLSN, res.SnapshotItems = cut, n
			break
		}
	}
	if res.snapshot == "" {
		r.reset()
	}
	r.snapID = r.maxID
	r.reserve(pushes)

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
	for _, old := range older {
		os.Remove(old)
	}
	r.compact()
	res.Items = r.items
	res.NextLSN = max(maxLSN, res.SnapshotLSN) + 1
	res.NextID = r.maxID + 1
	res.retained = segs
	return res, nil
}
