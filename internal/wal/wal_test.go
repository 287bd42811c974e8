package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Shorthands for appendRecord, one per record shape.
func appendPushRecord(dst []byte, id uint64, prio int64, value []byte) []byte {
	return appendRecord(dst, record{op: opPush, id: id, prio: prio, value: value})
}

func appendRequeueRecord(dst []byte, id uint64, prio int64, value []byte) []byte {
	return appendRecord(dst, record{op: opRequeue, id: id, prio: prio, value: value})
}

func appendIDRecord(dst []byte, op byte, id uint64) []byte {
	return appendRecord(dst, record{op: op, id: id})
}

func appendPopRecord(dst []byte, id uint64) []byte { return appendIDRecord(dst, opPop, id) }

// memPQ is a tiny mutex-protected priority queue backing the Queue tests —
// deliberately naive (O(n) pop) so a test failure is never the backend's
// fault.
type memEl struct {
	prio int64
	val  []byte
}

type memPQ struct {
	mu  sync.Mutex
	els []memEl
}

func (m *memPQ) Push(p int64, v []byte) {
	m.mu.Lock()
	m.els = append(m.els, memEl{p, v})
	m.mu.Unlock()
}

func (m *memPQ) min() int {
	best := 0
	for i := range m.els {
		if m.els[i].prio < m.els[best].prio {
			best = i
		}
	}
	return best
}

func (m *memPQ) Pop() (int64, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.els) == 0 {
		return 0, nil, false
	}
	i := m.min()
	e := m.els[i]
	m.els = append(m.els[:i], m.els[i+1:]...)
	return e.prio, e.val, true
}

func (m *memPQ) Peek() (int64, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.els) == 0 {
		return 0, nil, false
	}
	e := m.els[m.min()]
	return e.prio, e.val, true
}

func (m *memPQ) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.els)
}

func nopRecord(record) {}

func TestRecordCodec(t *testing.T) {
	var buf []byte
	buf = appendPushRecord(buf, 7, -42, []byte("payload"))
	buf = appendPushRecord(buf, 8, 0, nil)
	buf = appendPopRecord(buf, 7)

	var got []record
	consumed, records, err := readRecords(bytes.NewReader(buf), func(rec record) {
		cp := rec
		cp.value = append([]byte(nil), rec.value...)
		got = append(got, cp)
	})
	if err != nil || consumed != int64(len(buf)) || records != 3 {
		t.Fatalf("scan: consumed=%d/%d records=%d err=%v", consumed, len(buf), records, err)
	}
	if got[0].op != opPush || got[0].id != 7 || got[0].prio != -42 || string(got[0].value) != "payload" {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].op != opPush || got[1].id != 8 || got[1].prio != 0 || len(got[1].value) != 0 {
		t.Fatalf("record 1 = %+v", got[1])
	}
	if got[2].op != opPop || got[2].id != 7 {
		t.Fatalf("record 2 = %+v", got[2])
	}
}

func TestRecordCodecTornAndCorrupt(t *testing.T) {
	one := appendPushRecord(nil, 1, 10, []byte("abc"))
	full := append(append([]byte(nil), one...), appendPopRecord(nil, 1)...)

	// Every truncation point mid-stream stops the scan exactly at the last
	// whole record, with ErrTornRecord for any partial tail.
	for cut := 0; cut <= len(full); cut++ {
		consumed, records, err := readRecords(bytes.NewReader(full[:cut]), nopRecord)
		wantRecs := 0
		if cut >= len(one) {
			wantRecs = 1
		}
		if cut == len(full) {
			wantRecs = 2
		}
		if records != wantRecs {
			t.Fatalf("cut=%d: records=%d want %d", cut, records, wantRecs)
		}
		if consumed == int64(cut) && err != nil {
			t.Fatalf("cut=%d: clean prefix but err=%v", cut, err)
		}
		if consumed < int64(cut) && err == nil {
			t.Fatalf("cut=%d: dirty tail but no error", cut)
		}
	}

	// A flipped body byte fails the CRC; a flipped length byte fails framing.
	for _, flip := range []int{0, 3, 5, 9, 12, len(one) - 1} {
		bad := append([]byte(nil), one...)
		bad[flip] ^= 0xff
		if _, _, err := decodeRecord(bad); err == nil {
			t.Fatalf("flip byte %d: decode accepted corrupt record", flip)
		}
	}
}

func TestLogAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn := l.AppendPush(1, 5, []byte("a")); lsn != 1 {
		t.Fatalf("first LSN = %d", lsn)
	}
	l.AppendPush(2, 3, []byte("b"))
	l.AppendPop(1)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableLSN(); d != 3 {
		t.Fatalf("durable LSN = %d", d)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 3 || rec.NextLSN != 4 || rec.NextID != 3 || rec.TornTail {
		t.Fatalf("recover = %+v", rec)
	}
	if len(rec.Items) != 1 || rec.Items[0].ID != 2 || rec.Items[0].Priority != 3 || string(rec.Items[0].Value) != "b" {
		t.Fatalf("items = %+v", rec.Items)
	}

	// Reopen against the recovery and continue the LSN/ID sequences.
	l2, err := Open(Config{Dir: dir, SyncInterval: time.Millisecond}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if lsn := l2.AppendPush(3, 1, []byte("c")); lsn != 4 {
		t.Fatalf("post-recovery LSN = %d", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Records != 4 || rec2.NextLSN != 5 || len(rec2.Items) != 2 {
		t.Fatalf("second recover = %+v", rec2)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	rec, err := Recover(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Items) != 0 || rec.NextLSN != 1 || rec.NextID != 1 || rec.Records != 0 {
		t.Fatalf("fresh recover = %+v", rec)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		l.AppendPush(uint64(i), int64(i), []byte{byte(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v)", segs, err)
	}

	// Simulate a crash mid-append: a prefix of a fourth record at the tail.
	torn := appendPushRecord(nil, 4, 4, []byte("never-synced"))
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)-5])
	f.Close()

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || rec.Records != 3 || len(rec.Items) != 3 || rec.NextLSN != 4 {
		t.Fatalf("torn recover = %+v", rec)
	}
	// The tear was truncated away: a second recovery is clean.
	rec2, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTail || rec2.Records != 3 {
		t.Fatalf("post-truncate recover = %+v", rec2)
	}
}

func TestRecoverMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	seg1 := append(segmentHeader(1), appendPushRecord(nil, 1, 1, []byte("a"))...)
	seg1 = append(seg1, appendPushRecord(nil, 2, 2, []byte("b"))...)
	seg2 := append(segmentHeader(3), appendPopRecord(nil, 1)...)
	// Flip a byte inside seg1's first record body.
	seg1[segHdrSize+recordHdrSize+2] ^= 0xff
	for name, data := range map[string][]byte{segmentName(1): seg1, segmentName(3): seg2} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Recover(dir, nil); err == nil || !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("mid-log corruption: err = %v", err)
	}
}

func TestQueueRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SyncInterval: time.Millisecond}
	q, rec, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || len(rec.Items) != 0 {
		t.Fatalf("fresh OpenQueue recovered %+v", rec)
	}
	for i := 0; i < 100; i++ {
		q.Push(int64(i%10), []byte(fmt.Sprintf("v%03d", i)))
	}
	popped := map[string]bool{}
	for i := 0; i < 37; i++ {
		_, v, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		popped[string(v)] = true
	}
	if err := q.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, rec2, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if len(rec2.Items) != 63 || q2.Len() != 63 {
		t.Fatalf("restart recovered %d items (queue len %d)", len(rec2.Items), q2.Len())
	}
	// Everything popped before the restart stays popped; everything else
	// comes back in priority order.
	lastPrio := int64(-1 << 62)
	for i := 0; i < 63; i++ {
		p, v, ok := q2.Pop()
		if !ok {
			t.Fatalf("post-restart pop %d: empty", i)
		}
		if popped[string(v)] {
			t.Fatalf("duplicate delivery of %q after restart", v)
		}
		if p < lastPrio {
			t.Fatalf("priority order violated: %d after %d", p, lastPrio)
		}
		lastPrio = p
		popped[string(v)] = true
	}
	if _, _, ok := q2.Pop(); ok {
		t.Fatal("queue should be empty")
	}
	if len(popped) != 100 {
		t.Fatalf("delivered %d distinct values, want 100", len(popped))
	}
	// Identity continues past the restart: a fresh push must not collide.
	q2.Push(1, []byte("fresh"))
	if _, v, ok := q2.Pop(); !ok || string(v) != "fresh" {
		t.Fatalf("fresh push after restart: %q ok=%v", v, ok)
	}
}

func TestQueueSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir:              dir,
		SyncInterval:     time.Millisecond,
		SegmentBytes:     1 << 10, // rotate every KiB to exercise compaction
		SnapshotSegments: -1,      // manual SnapshotNow only: deterministic
	}
	q, _, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 200; i++ {
		q.Push(int64(i), val)
		if i%3 == 0 {
			q.Pop()
		}
		if i%10 == 9 {
			// Rotation happens at flush time, one rotation per flush; force
			// frequent flushes so the log actually grows multiple segments.
			if err := q.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	if segs := q.Log().Segments(); segs < 3 {
		t.Fatalf("expected several segments before compaction, got %d", segs)
	}
	if err := q.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	segsAfter, snaps, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d", len(snaps))
	}
	if len(segsAfter) != 1 {
		t.Fatalf("segments after compaction = %d, want only the active one", len(segsAfter))
	}
	wantLen := q.Len()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, rec, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if rec.SnapshotItems == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rec)
	}
	if q2.Len() != wantLen {
		t.Fatalf("recovered len = %d, want %d", q2.Len(), wantLen)
	}
}

func TestQueueConcurrentCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SyncInterval: 200 * time.Microsecond}
	q, _, err := OpenQueue(cfg, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Push(int64(i), []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err := q.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if i%4 == 3 {
					q.Pop()
					if err := q.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
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
}

func TestModes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{{"sync", ModeSync, true}, {"async", ModeAsync, true}, {"fsync", ModeSync, false}} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}

	// Async commits return without waiting; a Sync still forces durability.
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Mode: ModeAsync, SyncInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendPush(1, 1, []byte("a"))
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableLSN(); d != 0 {
		// The hour-long interval means nothing flushed yet; async Commit
		// must not have waited for it.
		t.Fatalf("async commit advanced durable LSN to %d", d)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableLSN(); d != 1 {
		t.Fatalf("Sync left durable LSN at %d", d)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := Open(Config{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("sync-mode Open started %d goroutines", after-before)
	}
}

func TestLoneCommitFlushesOnCaller(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendPush(1, 1, []byte("a"))
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// No goroutine exists that could have flushed for the caller: the
	// record is durable because Commit wrote and fsynced it itself.
	if d := l.DurableLSN(); d != 1 {
		t.Fatalf("durable LSN = %d after a lone Commit", d)
	}
	if h, _ := l.Snapshot().Hist("sync.batch"); h.Count != 1 || h.Max != 1 {
		t.Fatalf("sync.batch = %+v, want one fsync of one record", h)
	}
}

// TestFlushFailurePoisonsFollowers closes the segment file while
// committers are parked behind a flush: whoever leads next fails the
// write, and then the leader and every follower get an error, nothing
// becomes durable, and the log refuses later commits.
func TestFlushFailurePoisonsFollowers(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for a leader mid-fsync so the committers below park.
	l.mu.Lock()
	l.flushing = true
	l.mu.Unlock()
	const committers = 4
	errs := make(chan error, committers)
	for i := 0; i < committers; i++ {
		go func(i int) {
			l.AppendPush(uint64(i+1), int64(i), []byte("x"))
			errs <- l.Commit()
		}(i)
	}
	for {
		l.mu.Lock()
		parked := l.waiters
		l.mu.Unlock()
		if parked == committers {
			break
		}
		runtime.Gosched()
	}
	l.mu.Lock()
	l.file.Close()
	l.flushing = false // the stand-in flush ends without advancing durable
	l.cond.Broadcast()
	l.mu.Unlock()
	for i := 0; i < committers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a committer was ACKed by a failed flush")
		}
	}
	if d := l.DurableLSN(); d != 0 {
		t.Fatalf("durable LSN advanced to %d past a failed flush", d)
	}
	l.AppendPush(9, 9, []byte("late"))
	if err := l.Commit(); err == nil {
		t.Fatal("a poisoned log accepted a later commit")
	}
}

func TestOpenQueueSweepsSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, snapshotName(7)+".tmp")
	if err := os.WriteFile(stray, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, _, err := OpenQueue(Config{Dir: dir}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray snapshot temp file survived OpenQueue (stat err %v)", err)
	}
}

func TestLogCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SyncInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendPush(1, 1, []byte("pending"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || len(rec.Items) != 1 {
		t.Fatalf("close lost the pending record: %+v", rec)
	}
}

// FuzzWALDecode throws arbitrary bytes at the record scanner: it must never
// panic, must stop at the first invalid record, and the clean prefix it
// reports must itself re-scan to the same answer (the property recovery's
// torn-tail truncation depends on).
func FuzzWALDecode(f *testing.F) {
	valid := appendPushRecord(nil, 1, -7, []byte("seed"))
	valid = appendPopRecord(valid, 1)
	valid = appendIDRecord(valid, opLease, 2)
	valid = appendRequeueRecord(valid, 2, 9, []byte("again"))
	valid = appendIDRecord(valid, opAck, 2)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])      // torn tail
	f.Add(append(valid, 0xde, 0xad)) // garbage tail
	flipped := append([]byte(nil), valid...)
	flipped[6] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		consumed, records, err := readRecords(bytes.NewReader(data), nopRecord)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if err == nil && consumed != int64(len(data)) {
			t.Fatalf("clean scan stopped early: %d of %d", consumed, len(data))
		}
		if err != nil && consumed == int64(len(data)) {
			t.Fatalf("error %v but every byte consumed", err)
		}
		c2, r2, err2 := readRecords(bytes.NewReader(data[:consumed]), nopRecord)
		if err2 != nil || c2 != consumed || r2 != records {
			t.Fatalf("prefix re-scan diverged: %d/%d records %d/%d err=%v", c2, consumed, r2, records, err2)
		}
	})
}
