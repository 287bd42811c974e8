package wal

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSnapshotGolden pins the snapshot format: the streaming writer must
// produce, byte for byte, the files the whole-buffer writer it replaced
// produced from the same items, and the reader must read them back.
func TestSnapshotGolden(t *testing.T) {
	val := make([]byte, 300)
	for i := range val {
		val[i] = byte(i)
	}
	for _, tc := range []struct {
		golden string
		cut    uint64
		items  []Item
	}{
		{"snapshot.golden", 42, []Item{
			{ID: 1, Priority: -5, Value: []byte("alpha")},
			{ID: 7, Priority: 0, Value: nil},
			{ID: 1 << 40, Priority: math.MaxInt64, Value: val},
			{ID: 3, Priority: math.MinInt64, Value: []byte("x")},
		}},
		{"snapshot_empty.golden", 0, nil},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		n, err := writeSnapshot(dir, tc.cut, len(tc.items), func(emit func(Item)) error {
			for _, it := range tc.items {
				emit(it)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapshotName(tc.cut))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || n != int64(len(want)) {
			t.Fatalf("%s: wrote %d bytes (reported %d), differs from the %d golden bytes", tc.golden, len(got), n, len(want))
		}
		var back []Item
		cut, count, err := readSnapshot(path, func(int) {}, func(it Item) {
			back = append(back, Item{ID: it.ID, Priority: it.Priority, Value: append([]byte(nil), it.Value...)})
		})
		if err != nil || cut != tc.cut || count != len(tc.items) || len(back) != len(tc.items) {
			t.Fatalf("%s: read back cut=%d count=%d items=%d err=%v", tc.golden, cut, count, len(back), err)
		}
		for i, it := range back {
			if it.ID != tc.items[i].ID || it.Priority != tc.items[i].Priority || !bytes.Equal(it.Value, tc.items[i].Value) {
				t.Fatalf("%s: item %d = %+v, want %+v", tc.golden, i, it, tc.items[i])
			}
		}
	}
}

// historyOp is one step of a generated Queue history.
type historyOp int

const (
	hPush historyOp = iota
	hPop
	hLease
	hAck
	hRequeue
	hRewrite
	hSync
	hSnapshot
	nHistoryOps
)

// runHistory drives one seeded random history against a fresh Queue in
// dir, calling SnapshotNow at random points when snapshots is set, and
// abandons the log without Queue.Close (a crash after the last fsync). It
// returns the model's live multiset: id → "priority/value", every pushed
// element not popped or acked, leased ones included. Values carry their
// id, so a Pop (which reports no id) is attributed exactly.
func runHistory(t *testing.T, dir string, seed int64, ops int, snapshots bool) map[uint64]string {
	t.Helper()
	q, _, err := OpenQueue(Config{Dir: dir, SegmentBytes: 512, SnapshotSegments: -1}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	live := map[uint64]string{}
	var leased []uint64
	nextID := uint64(0)
	idOf := func(v []byte) uint64 {
		id, err := strconv.ParseUint(strings.SplitN(string(v), "#", 2)[0], 10, 64)
		if err != nil {
			t.Fatalf("value %q carries no id", v)
		}
		return id
	}
	takeLeased := func() (uint64, bool) {
		if len(leased) == 0 {
			return 0, false
		}
		i := rng.Intn(len(leased))
		tok := leased[i]
		leased = append(leased[:i], leased[i+1:]...)
		return tok, true
	}
	for i := 0; i < ops; i++ {
		prio := int64(rng.Intn(20))
		switch op := historyOp(rng.Intn(int(nHistoryOps))); op {
		case hPush:
			nextID++
			v := fmt.Sprintf("%d#%d", nextID, i)
			q.Push(prio, []byte(v))
			live[nextID] = fmt.Sprintf("%d/%s", prio, v)
		case hPop:
			if _, v, ok := q.Pop(); ok {
				delete(live, idOf(v))
			}
		case hLease:
			if tok, _, v, ok := q.LeaseMin(); ok {
				if tok != idOf(v) {
					t.Fatalf("lease token %d for value %q", tok, v)
				}
				leased = append(leased, tok)
			}
		case hAck:
			if tok, ok := takeLeased(); ok {
				q.Ack(tok)
				delete(live, tok)
			}
		case hRequeue, hRewrite:
			tok, ok := takeLeased()
			if !ok {
				break
			}
			v := fmt.Sprintf("%d#%d", tok, i)
			if op == hRequeue {
				q.Requeue(tok, prio, []byte(v))
			} else {
				q.Rewrite(tok, prio, []byte(v))
				leased = append(leased, tok) // still claimed
			}
			live[tok] = fmt.Sprintf("%d/%s", prio, v)
		case hSync:
			if err := q.Sync(); err != nil {
				t.Fatal(err)
			}
		case hSnapshot:
			if snapshots {
				if err := q.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	q.log.Close()
	return live
}

// recovered is Recover's live multiset in the model's shape.
func recovered(t *testing.T, dir string) (map[uint64]string, *RecoverResult) {
	t.Helper()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]string{}
	for _, it := range rec.Items {
		got[it.ID] = fmt.Sprintf("%d/%s", it.Priority, it.Value)
	}
	return got, rec
}

// TestCompactionMatchesReplay is the differential check of compaction:
// over seeded random histories of every Queue mutation, with snapshots
// cut at random points, the live multiset Recover returns must equal both
// a model of the history and Recover's answer for the same history with no
// snapshot at all.
func TestCompactionMatchesReplay(t *testing.T) {
	histories, ops := 60, 400
	if testing.Short() {
		histories = 15
	}
	snapped := 0
	for seed := int64(1); seed <= int64(histories); seed++ {
		withDir, plainDir := t.TempDir(), t.TempDir()
		model := runHistory(t, withDir, seed, ops, true)
		if again := runHistory(t, plainDir, seed, ops, false); len(again) != len(model) {
			t.Fatalf("seed %d: history is not deterministic", seed)
		}
		with, rec := recovered(t, withDir)
		plain, _ := recovered(t, plainDir)
		if rec.SnapshotLSN > 0 {
			snapped++
		}
		for name, got := range map[string]map[uint64]string{"with snapshots": with, "without": plain} {
			if len(got) != len(model) {
				t.Fatalf("seed %d %s: recovered %d elements, model has %d", seed, name, len(got), len(model))
			}
			for id, want := range model {
				if got[id] != want {
					t.Fatalf("seed %d %s: element %d recovered as %q, model %q", seed, name, id, got[id], want)
				}
			}
		}
	}
	if snapped < histories/2 {
		t.Fatalf("only %d of %d histories recovered from a snapshot", snapped, histories)
	}
}

// TestSnapshotUnderLoad seals and compacts while committers push and pop
// and small segments trigger background compactions: every snapshot must
// succeed, and a restart must recover exactly the final queue.
func TestSnapshotUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 2048, SnapshotSegments: 2}
	q, _, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Push(int64(i%7), []byte(fmt.Sprintf("w%d-%d", w, i)))
				if i%3 == 2 {
					q.Pop()
				}
				if err := q.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			if snaps == 0 {
				t.Fatal("no snapshot ran during the load")
			}
			wantLen := q.Len()
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			q2, _, err := OpenQueue(cfg, &memPQ{})
			if err != nil {
				t.Fatal(err)
			}
			defer q2.Close()
			if q2.Len() != wantLen {
				t.Fatalf("recovered len = %d, want %d", q2.Len(), wantLen)
			}
			return
		default:
			if err := q.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCompactionFailsOnUnreadableSnapshot: a compaction that cannot read
// the snapshot it starts from must fail and delete nothing, so the log
// still recovers every element. The snapshot is made unreadable twice:
// swapped for a directory (an I/O error that goes away) and truncated.
func TestCompactionFailsOnUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 512, SnapshotSegments: -1}
	q, _, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	push := func(q *Queue, n int) {
		for i := 0; i < n; i++ {
			v := fmt.Sprintf("v%d", i)
			q.Push(int64(i%5), []byte(v))
			if err := q.Sync(); err != nil { // one flush per record: many segments
				t.Fatal(err)
			}
		}
	}
	push(q, 60)
	if err := q.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	push(q, 60)
	for id := uint64(1); id <= 120; id++ {
		want[id] = fmt.Sprintf("%d/v%d", (id-1)%60%5, (id-1)%60)
	}
	segs, snaps, err := listDir(dir)
	if err != nil || len(snaps) != 1 || len(segs) < 3 {
		t.Fatalf("before: %d segments, snapshots %v, err %v", len(segs), snaps, err)
	}
	snap := snaps[0]
	unchanged := func(stage string) {
		t.Helper()
		for _, seg := range segs {
			if _, err := os.Stat(seg.path); err != nil {
				t.Fatalf("%s: failed compaction deleted %s", stage, seg.path)
			}
		}
		if _, err := os.Stat(snap); err != nil {
			t.Fatalf("%s: failed compaction deleted the snapshot", stage)
		}
	}

	if err := os.Rename(snap, snap+".saved"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := q.SnapshotNow(); err == nil {
		t.Fatal("compaction over an unreadable snapshot reported success")
	}
	os.Remove(snap)
	if err := os.Rename(snap+".saved", snap); err != nil {
		t.Fatal(err)
	}
	unchanged("I/O error")
	q.log.Close() // abandon: no final compaction
	if got, rec := recovered(t, dir); len(got) != len(want) || rec.SnapshotLSN == 0 {
		t.Fatalf("recovered %d elements (snapshot cut %d), want %d", len(got), rec.SnapshotLSN, len(want))
	} else {
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("element %d recovered as %q, want %q", id, got[id], w)
			}
		}
	}

	q, _, err = OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.log.Close()
	push(q, 10)
	segs, _, _ = listDir(dir)
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := q.SnapshotNow(); err == nil {
		t.Fatal("compaction over a truncated snapshot reported success")
	}
	unchanged("truncated")
}

// TestFailedCompactionCounted: a background compaction that cannot read
// its snapshot (swapped for a directory, as above) counts one
// snapshots.failed; once the file is back, the next one succeeds and the
// failure count stays put.
func TestFailedCompactionCounted(t *testing.T) {
	dir := t.TempDir()
	q, _, err := OpenQueue(Config{Dir: dir, SegmentBytes: 512, SnapshotSegments: -1}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(int64(i), []byte(fmt.Sprintf("v%d", i)))
			if err := q.Sync(); err != nil { // one flush per record: many segments
				t.Fatal(err)
			}
		}
	}
	push(30)
	if err := q.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	push(30)
	snap := q.snap
	if err := os.Rename(snap, snap+".saved"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	q.maybeSnapshot()
	counters := func() (failed, written uint64) {
		s := q.Log().Snapshot()
		return s.Counter("snapshots.failed"), s.Counter("snapshots")
	}
	if failed, written := counters(); failed != 1 || written != 1 {
		t.Fatalf("after a failed compaction: snapshots.failed=%d snapshots=%d, want 1 and 1", failed, written)
	}
	os.Remove(snap)
	if err := os.Rename(snap+".saved", snap); err != nil {
		t.Fatal(err)
	}
	q.maybeSnapshot()
	if failed, written := counters(); failed != 1 || written != 2 {
		t.Fatalf("after the retry: snapshots.failed=%d snapshots=%d, want 1 and 2", failed, written)
	}
}

// TestCompactAtOpen: restarts that never fill a segment pile up one
// segment each, and no rotation ever compacts them. Reopening with the
// trigger below the pile must start the compaction itself, and the
// compacted log must recover exactly what the pile did.
func TestCompactAtOpen(t *testing.T) {
	const restarts, trigger = 5, 2
	dir := t.TempDir()
	for i := 0; i < restarts; i++ {
		q, _, err := OpenQueue(Config{Dir: dir, SnapshotSegments: -1}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		q.Push(int64(i), []byte(fmt.Sprintf("r%d", i)))
		q.Pop()
		q.Push(int64(-i), []byte(fmt.Sprintf("s%d", i)))
		if err := q.Sync(); err != nil {
			t.Fatal(err)
		}
		q.log.Close() // abandon: no final compaction
	}
	want, _ := recovered(t, dir)

	q, _, err := OpenQueue(Config{Dir: dir, SnapshotSegments: trigger}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Log().Segments() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d segments after reopening, want the pile compacted away", q.Log().Segments())
		}
		time.Sleep(time.Millisecond)
	}
	q.snapMu.Lock() // wait out the compaction's file removals
	q.snapMu.Unlock()
	q.log.Close()
	if n := q.Log().Snapshot().Counter("snapshots"); n != 1 {
		t.Fatalf("snapshots = %d, want 1", n)
	}
	got, rec := recovered(t, dir)
	if rec.SnapshotLSN == 0 || len(got) != len(want) {
		t.Fatalf("recovered %d elements (snapshot cut %d), want %d from a snapshot", len(got), rec.SnapshotLSN, len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("element %d recovered as %q, want %q", id, got[id], w)
		}
	}
}

// BenchmarkCompact times one compaction of a 4-segment log with 50 % pops
// on top of a 10⁵-item snapshot, and reports ns and allocations per
// replayed record (snapshot items and segment records both count). Every
// iteration compacts the same files: they are rewritten untimed.
func BenchmarkCompact(b *testing.B) {
	const snapItems, segs, perSeg = 100_000, 4, 25_000
	val := bytes.Repeat([]byte("v"), 16)
	dir := b.TempDir()
	if _, err := writeSnapshot(dir, 0, snapItems, func(emit func(Item)) error {
		for id := uint64(1); id <= snapItems; id++ {
			emit(Item{ID: id, Priority: int64(id % 1024), Value: val})
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotName(0))
	snapData, err := os.ReadFile(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	// Each segment alternates a push of a fresh id with a pop of an older
	// one; the pops retire every other snapshot item.
	files := map[string][]byte{snapPath: snapData}
	var sealed []segment
	next, lsn := uint64(snapItems), uint64(1)
	for s := 0; s < segs; s++ {
		data := segmentHeader(lsn)
		for i := 0; i < perSeg/2; i++ {
			next++
			data = appendPushRecord(data, next, int64(next%1024), val)
			data = appendPopRecord(data, 2*(next-snapItems))
		}
		seg := segment{start: lsn, path: filepath.Join(dir, segmentName(lsn))}
		files[seg.path] = data
		sealed = append(sealed, seg)
		lsn += perSeg
	}
	restore := func() {
		os.Remove(filepath.Join(dir, snapshotName(lsn-1)))
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	restore()
	l, err := Open(Config{Dir: dir}, &RecoverResult{NextLSN: lsn, NextID: next + 1, retained: sealed})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	all := slices.Clone(l.segs)
	q := &Queue{log: l, snap: snapPath}

	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if err := q.compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if i == 0 {
			// Half the snapshot survives, plus every fresh push.
			if _, n, err := readSnapshot(q.snap, func(int) {}, func(Item) {}); err != nil || n != snapItems/2+segs*perSeg/2 {
				b.Fatalf("compacted %d items (err %v), want %d", n, err, snapItems/2+segs*perSeg/2)
			}
		}
		q.snap = snapPath
		l.mu.Lock()
		l.segs = slices.Clone(all)
		l.mu.Unlock()
		restore()
	}
	records := float64(b.N) * (snapItems + segs*perSeg)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/rec")
	b.ReportMetric(float64(mallocs)/records, "allocs/rec")
}
