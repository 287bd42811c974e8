package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/multiset"
)

// mapReplay is the replay rule at its plainest, the model the flat replay
// must agree with: a map from id to the newest push or requeue, minus every
// id a pop or ack retired.
type mapReplay map[uint64]Item

func (m mapReplay) apply(rec record) {
	switch rec.op {
	case opPush, opRequeue:
		m[rec.id] = Item{ID: rec.id, Priority: rec.prio, Value: slices.Clone(rec.value)}
	case opPop, opAck:
		delete(m, rec.id)
	}
}

func (m mapReplay) sorted() []Item {
	items := make([]Item, 0, len(m))
	for _, it := range m {
		items = append(items, it)
	}
	slices.SortFunc(items, cmpPriorityID)
	return items
}

// cmpPriorityID is the order Recover returns items in, spelled as a
// comparison: by priority, then by id.
func cmpPriorityID(a, b Item) int {
	if c := cmp.Compare(a.Priority, b.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// genHistory returns a seeded random record history of a leasing queue:
// pushes, pops, acks, requeues and rewrites (a rewrite logs a requeue
// record but keeps the element claimed), each respecting the invariant
// that no id is pushed or requeued after its pop or ack.
func genHistory(rng *rand.Rand, n int) []record {
	var recs []record
	var queued, leased []uint64
	nextID := uint64(0)
	take := func(ids *[]uint64) (uint64, bool) {
		if len(*ids) == 0 {
			return 0, false
		}
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		(*ids)[i] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		return id, true
	}
	for len(recs) < n {
		prio := int64(rng.Intn(16) - 8)
		val := []byte(fmt.Sprintf("v%d", len(recs)))
		switch rng.Intn(7) {
		case 0, 1:
			nextID++
			recs = append(recs, record{op: opPush, id: nextID, prio: prio, value: val})
			queued = append(queued, nextID)
		case 2:
			if id, ok := take(&queued); ok {
				recs = append(recs, record{op: opPop, id: id})
			}
		case 3:
			if id, ok := take(&queued); ok {
				leased = append(leased, id) // a lease logs nothing
			}
		case 4:
			if id, ok := take(&leased); ok {
				recs = append(recs, record{op: opAck, id: id})
			}
		case 5:
			if id, ok := take(&leased); ok {
				recs = append(recs, record{op: opRequeue, id: id, prio: prio, value: val})
				queued = append(queued, id)
			}
		case 6:
			if id, ok := take(&leased); ok {
				recs = append(recs, record{op: opRequeue, id: id, prio: prio, value: val})
				leased = append(leased, id)
			}
		}
	}
	return recs
}

// sameItems fails unless got and want hold the same items in the same order.
func sameItems(t *testing.T, what string, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Priority != w.Priority || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("%s: item %d = {%d %d %q}, want {%d %d %q}", what, i, g.ID, g.Priority, g.Value, w.ID, w.Priority, w.Value)
		}
	}
}

// TestFlatReplayMatchesModel writes seeded random histories as segments
// and a snapshot cut at a segment boundary, keeping a random number of the
// segments the snapshot already covers, as a crash between a compaction's
// rename and its deletions leaves them: then ids the snapshot holds are
// pushed, requeued, popped and acked again in the retained segments.
// Recover must return exactly the model's live multiset, sorted and free of
// duplicates; a queue opened on the directory must drain in that order,
// over both rebuild paths; and a compaction of the directory must recover
// to it again.
func TestFlatReplayMatchesModel(t *testing.T) {
	histories := 80
	if testing.Short() {
		histories = 20
	}
	overlapped := 0
	for seed := int64(1); seed <= int64(histories); seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := genHistory(rng, 100+rng.Intn(3000))
		// Segments of random length; segment k starts at LSN starts[k].
		var starts []int
		for at := 0; at < len(recs); at += 1 + rng.Intn(60) {
			starts = append(starts, at)
		}
		starts = append(starts, len(recs))
		cutSeg := rng.Intn(len(starts)) - 1 // -1: no snapshot
		keepFrom := 0
		if cutSeg >= 0 {
			keepFrom = rng.Intn(cutSeg + 2) // ≤ cutSeg: kept segments the snapshot covers
			if keepFrom <= cutSeg {
				overlapped++
			}
		}
		dir := t.TempDir()
		if cutSeg >= 0 {
			atCut := mapReplay{}
			for _, rec := range recs[:starts[cutSeg+1]] {
				atCut.apply(rec)
			}
			items := atCut.sorted()
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			if _, err := writeSnapshot(dir, uint64(starts[cutSeg+1]), len(items), func(emit func(Item)) error {
				for _, it := range items {
					emit(it)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for k := keepFrom; k+1 < len(starts); k++ {
			data := segmentHeader(uint64(starts[k] + 1))
			for _, rec := range recs[starts[k]:starts[k+1]] {
				data = appendRecord(data, rec)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(starts[k]+1))), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		model := mapReplay{}
		for _, rec := range recs {
			model.apply(rec)
		}
		want := model.sorted()
		what := func(stage string) string { return fmt.Sprintf("seed %d %s", seed, stage) }

		rec, err := Recover(dir, nil)
		if err != nil {
			t.Fatalf("%s: %v", what("recover"), err)
		}
		sameItems(t, what("recover"), rec.Items, want)
		for _, r := range recs {
			if r.id >= rec.NextID {
				t.Fatalf("%s: NextID %d does not pass id %d", what("recover"), rec.NextID, r.id)
			}
		}

		// Both rebuild paths drain in the recovered order: the one-pass
		// Load of skipqueue.PQ and the Push loop of a plain queue.
		for _, inner := range []multiset.Queue[[]byte]{skipqueue.NewPQ[[]byte](skipqueue.WithSeed(uint64(seed))), &memPQ{}} {
			q, _, err := OpenQueue(Config{Dir: dir, SnapshotSegments: -1}, inner)
			if err != nil {
				t.Fatalf("%s: %v", what("open"), err)
			}
			var drained []Item
			for {
				tok, prio, v, ok := q.LeaseMin()
				if !ok {
					break
				}
				drained = append(drained, Item{ID: tok, Priority: prio, Value: v})
			}
			q.log.Close()
			sameItems(t, what(fmt.Sprintf("drain %T", inner)), drained, want)
		}

		// Compaction replays the same overlap; a restart from its snapshot
		// recovers the same multiset.
		q, _, err := OpenQueue(Config{Dir: dir, SnapshotSegments: -1}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.SnapshotNow(); err != nil {
			t.Fatalf("%s: %v", what("compact"), err)
		}
		q.log.Close()
		rec, err = Recover(dir, nil)
		if err != nil {
			t.Fatalf("%s: %v", what("recover after compaction"), err)
		}
		sameItems(t, what("recover after compaction"), rec.Items, want)
	}
	if overlapped < histories/4 {
		t.Fatalf("only %d of %d histories kept segments the snapshot covers", overlapped, histories)
	}
}

// TestReplayBound: a replay holds about the live sets at its two ends,
// however many records retire elements in between. 10⁵ push/pop pairs
// over 10³ live elements must never hold more than a small constant times
// the live count, side sets included, and must end with exactly the live
// elements.
func TestReplayBound(t *testing.T) {
	const live, pairs = 1000, 100_000
	r := newReplay()
	peak := 0
	apply := func(rec record) {
		r.apply(rec)
		peak = max(peak, len(r.items)+len(r.dead)+len(r.newest))
	}
	val := []byte("v")
	id := uint64(0)
	for ; id < live; id++ {
		apply(record{op: opPush, id: id + 1, prio: int64(id % 7), value: val})
	}
	for i := uint64(0); i < pairs; i++ {
		id++
		apply(record{op: opPush, id: id, prio: int64(id % 7), value: val})
		apply(record{op: opPop, id: id - live})
	}
	if peak > 4*live {
		t.Fatalf("replay held %d entries at its peak, want at most %d (4 × the %d live)", peak, 4*live, live)
	}
	r.compact()
	if len(r.items) != live || r.items[0].ID != pairs+1 {
		t.Fatalf("replay ended with %d items from id %d, want %d from %d", len(r.items), r.items[0].ID, live, pairs+1)
	}
}

// TestSnapshotCountBound: a snapshot whose header claims 2^40 entries
// still fails to load, and the room recovery reserves for its items is
// bounded by the entries the file's bytes can hold, not by the claim, so
// the load allocates in proportion to the file's bytes.
func TestSnapshotCountBound(t *testing.T) {
	dir := t.TempDir()
	const items = 20_000
	val := []byte("12345678")
	if _, err := writeSnapshot(dir, 1, items, func(emit func(Item)) error {
		for id := uint64(1); id <= items; id++ {
			emit(Item{ID: id, Priority: int64(id), Value: val})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(data[len(snapMagic)+8:], 1<<40)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := newReplay()
	reserved := -1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = readSnapshot(path, func(n int) { reserved = n; r.reserve(n) }, r.add)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a snapshot claiming 2^40 entries loaded")
	}
	limit := (len(data) - len(snapMagic) - 16) / snapEntryHdr
	if reserved < items || reserved > limit {
		t.Fatalf("reserved %d items, want from the %d written to the %d the file's bytes can hold", reserved, items, limit)
	}
	// The reservation (40-byte Items for 28-byte entries), the value slabs
	// and the stream buffers come to about 2.7 times the file's bytes, and
	// under the race detector 4.7 times; a reservation sized by the claim
	// could not be made at all.
	if got, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data)); got > bound {
		t.Fatalf("loading a %d-byte snapshot allocated %d bytes, want at most %d", len(data), got, bound)
	}
}

// TestReplayDeadSetBound: compact's dead set is a bitmap only over a dense
// id range. One very old id popped among 10⁵ new ones must fall back to a
// map, not size a bitmap over the whole id range, and the compaction must
// still resolve the live multiset.
func TestReplayDeadSetBound(t *testing.T) {
	const old, base, fresh = 3, uint64(1) << 40, 100_000
	r := newReplay()
	val := []byte("v")
	for id := uint64(1); id <= old; id++ {
		r.add(Item{ID: id, Priority: 0, Value: val})
	}
	r.snapID = r.maxID
	ids := make([]uint64, 0, fresh+1)
	for i := uint64(0); i < fresh; i++ {
		r.apply(record{op: opPush, id: base + i, prio: 1, value: val})
		if i%2 == 1 {
			r.apply(record{op: opPop, id: base + i})
			ids = append(ids, base+i)
		}
	}
	r.apply(record{op: opPop, id: 1})
	r.apply(record{op: opRequeue, id: 2, prio: 2, value: []byte("requeued")})
	ids = append(ids, 1)

	s := newIDSet(ids, nil)
	if s.dense != nil || len(s.m) != len(ids) {
		t.Fatalf("one old id among %d new ones: %d-byte dense set, %d map entries; want a map of %d", fresh/2, len(s.dense), len(s.m), len(ids))
	}
	if s.get(1) != idDead || s.get(2) != 0 || s.get(base+1) != idDead || s.get(base) != 0 {
		t.Fatal("sparse set answers wrong")
	}
	d := newIDSet(ids[:len(ids)-1], []uint64{base})
	if n := uint64(len(ids)); d.dense == nil || uint64(len(d.dense)) > 8*(4*n+16) {
		t.Fatalf("dense ids: %d-byte set over %d ids, want a dense set of at most 4 words per id plus 16", len(d.dense), n)
	}
	if d.get(0) != 0 || d.get(base) != idNewest || d.get(base+1) != idDead || d.get(base+fresh) != 0 {
		t.Fatal("dense set answers wrong")
	}

	r.compact()
	want := []Item{{ID: 3, Value: val}}
	for i := uint64(0); i < fresh; i += 2 {
		want = append(want, Item{ID: base + i, Priority: 1, Value: val})
	}
	want = append(want, Item{ID: 2, Priority: 2, Value: []byte("requeued")})
	sortItems(r.items)
	sameItems(t, "compaction over a sparse dead set", r.items, want)
}

// TestRecoverAllocs: a restart copies each recovered value once, into a
// shared slab, and the one-pass build stores that copy. Recovering and
// rebuilding a push-only log into a skipqueue.PQ allocates about one object
// per element, its node, plus a few per slab and for the items slice.
func TestRecoverAllocs(t *testing.T) {
	const n = 10_000
	dir := t.TempDir()
	data := segmentHeader(1)
	for id := uint64(1); id <= n; id++ {
		data = appendPushRecord(data, id, int64(id*7919%n), []byte("sixteen-byte-val"))
	}
	seg := segment{start: 1, path: filepath.Join(dir, segmentName(1))}
	// A torn tail is not counted: replay makes room for the n pushes alone.
	if err := os.WriteFile(seg.path, append(data, 0, 0, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := livePushes([]segment{seg}); got != n {
		t.Fatalf("livePushes = %d, want %d", got, n)
	}
	allocs := testing.AllocsPerRun(3, func() {
		rec, err := Recover(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		pq := skipqueue.NewPQ[[]byte]()
		rebuild(pq, rec.Items)
		if pq.Len() != n {
			t.Fatalf("rebuilt %d elements, want %d", pq.Len(), n)
		}
	})
	if perElem := allocs / n; perElem > 1.02 {
		t.Fatalf("recover + rebuild allocated %.0f objects for %d elements (%.3f each), want at most 1.02 each", allocs, n, perElem)
	}
}

// TestStoredValueAliasing: a value Peek, Pop or LeaseMin returns shares
// bytes with the stored form, whose id follows it (in a recovery slab,
// the next value follows that). Each has cap == len, so appending to one
// copies it and changes no id, no other value and no log record.
func TestStoredValueAliasing(t *testing.T) {
	dir := t.TempDir()
	q, _, err := OpenQueue(Config{Dir: dir, SnapshotSegments: -1}, skipqueue.NewPQ[[]byte]())
	if err != nil {
		t.Fatal(err)
	}
	q.Push(1, []byte("one"))
	q.Push(2, []byte("two"))
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Elements 1 and 2 now come back from one slab, element 3 from Push.
	q, _, err = OpenQueue(Config{Dir: dir, SnapshotSegments: -1}, skipqueue.NewPQ[[]byte]())
	if err != nil {
		t.Fatal(err)
	}
	q.Push(3, []byte("three"))
	tail := []byte("XXXXXXXXXXXXXXXXXXXXXXXX")
	check := func(what string, v []byte, want string) {
		t.Helper()
		if string(v) != want || cap(v) != len(v) {
			t.Fatalf("%s = %q with cap %d, want %q with cap %d", what, v, cap(v), want, len(want))
		}
		_ = append(v, tail...)
	}
	for i, want := range []string{"one", "two", "three"} {
		_, v, ok := q.Peek()
		if !ok {
			t.Fatalf("Peek %d: empty", i)
		}
		check("Peek", v, want)
		if i == 1 {
			tok, _, v, ok := q.LeaseMin()
			if !ok || tok != 2 {
				t.Fatalf("LeaseMin = token %d, %v; want token 2", tok, ok)
			}
			check("LeaseMin", v, want)
			q.Ack(tok)
			continue
		}
		_, v, ok = q.Pop()
		if !ok {
			t.Fatalf("Pop %d: empty", i)
		}
		check("Pop", v, want)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Items) != 0 {
		t.Fatalf("log keeps %d items live after every element was popped or acked: %+v", len(rec.Items), rec.Items)
	}
}

// BenchmarkRecover times a restart's three phases over two logs of 2×10⁵
// recovered elements with 16-byte values: the replay (replayDir), the one
// sort, and the rebuild into a skipqueue.PQ (its one-pass Load). It
// reports each phase in ns per recovered element, and the allocations of
// all three per recovered element. "push-only" is one segment of pushes;
// "half-pops" is a 2×10⁵-item snapshot under segments that push 2×10⁵
// fresh ids and pop 2×10⁵, half of them snapshot items.
func BenchmarkRecover(b *testing.B) {
	const n = 200_000
	val := bytes.Repeat([]byte("v"), 16)
	prio := func(rng *rand.Rand) int64 { return rng.Int63n(1 << 20) }
	b.Run("push-only", func(b *testing.B) {
		benchRecover(b, n, func(dir string, rng *rand.Rand) error {
			data := segmentHeader(1)
			for id := uint64(1); id <= n; id++ {
				data = appendPushRecord(data, id, prio(rng), val)
			}
			return os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644)
		})
	})
	b.Run("half-pops", func(b *testing.B) {
		benchRecover(b, n, func(dir string, rng *rand.Rand) error {
			if _, err := writeSnapshot(dir, 0, n, func(emit func(Item)) error {
				for id := uint64(1); id <= n; id++ {
					emit(Item{ID: id, Priority: prio(rng), Value: val})
				}
				return nil
			}); err != nil {
				return err
			}
			// Each push is followed by a pop: of a snapshot item after an
			// even push, of the push itself after an odd one.
			data := segmentHeader(1)
			for i := uint64(1); i <= n; i++ {
				data = appendPushRecord(data, n+i, prio(rng), val)
				if i%2 == 0 {
					data = appendPopRecord(data, i)
				} else {
					data = appendPopRecord(data, n+i)
				}
			}
			return os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644)
		})
	})
}

func benchRecover(b *testing.B, n int, write func(dir string, rng *rand.Rand) error) {
	dir := b.TempDir()
	if err := write(dir, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	var replayT, sortT, rebuildT time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := replayDir(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		sortItems(res.Items)
		t2 := time.Now()
		pq := skipqueue.NewPQ[[]byte]()
		rebuild(pq, res.Items)
		t3 := time.Now()
		if pq.Len() != n {
			b.Fatalf("rebuilt %d elements, want %d", pq.Len(), n)
		}
		replayT, sortT, rebuildT = replayT+t1.Sub(t0), sortT+t2.Sub(t1), rebuildT+t3.Sub(t2)
	}
	runtime.ReadMemStats(&ms)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*n) }
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N*n), "allocs/elem")
	b.ReportMetric(per(replayT), "replay-ns/elem")
	b.ReportMetric(per(sortT), "sort-ns/elem")
	b.ReportMetric(per(rebuildT), "rebuild-ns/elem")
}
