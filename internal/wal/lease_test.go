package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLeaseRecordCodec: the three lease-protocol records round-trip and
// reject corruption like the originals (opLease is only ever read now, but
// older logs carry it).
func TestLeaseRecordCodec(t *testing.T) {
	var buf []byte
	buf = appendIDRecord(buf, opLease, 7)
	buf = appendIDRecord(buf, opAck, 7)
	buf = appendRequeueRecord(buf, 9, -3, []byte("retry"))

	var got []record
	consumed, records, err := readRecords(bytes.NewReader(buf), func(rec record) {
		cp := rec
		cp.value = append([]byte(nil), rec.value...)
		got = append(got, cp)
	})
	if err != nil || consumed != int64(len(buf)) || records != 3 {
		t.Fatalf("scan: consumed=%d/%d records=%d err=%v", consumed, len(buf), records, err)
	}
	if got[0].op != opLease || got[0].id != 7 {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].op != opAck || got[1].id != 7 {
		t.Fatalf("record 1 = %+v", got[1])
	}
	if got[2].op != opRequeue || got[2].id != 9 || got[2].prio != -3 || string(got[2].value) != "retry" {
		t.Fatalf("record 2 = %+v", got[2])
	}

	for _, flip := range []int{0, 4, 8, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[flip] ^= 0xff
		if _, _, serr := decodeRecord(bad); flip < 13 && serr == nil {
			t.Fatalf("flip byte %d: decode accepted corrupt record", flip)
		}
	}
}

// TestQueueLeaseRecovery walks the full lease lifecycle against a real
// log and checks what a restart resurrects at each stage:
//
//   - leased, never acked  → conservatively re-enqueued (redelivery)
//   - acked                → gone for good
//   - requeued with a new value → live with the NEW value
func TestQueueLeaseRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Queue, *RecoverResult) {
		t.Helper()
		q, rec, err := OpenQueue(Config{Dir: dir, SyncInterval: time.Millisecond}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		return q, rec
	}

	q, _ := open()
	q.Push(1, []byte("ack-me"))
	q.Push(2, []byte("abandon-me"))
	q.Push(3, []byte("requeue-me"))

	// Lease all three in priority order.
	tok1, p1, v1, ok := q.LeaseMin()
	if !ok || p1 != 1 || string(v1) != "ack-me" {
		t.Fatalf("lease 1 = %d/%q/%v", p1, v1, ok)
	}
	tok2, _, _, ok2 := q.LeaseMin()
	tok3, _, _, ok3 := q.LeaseMin()
	if !ok2 || !ok3 {
		t.Fatal("leases 2/3 failed")
	}
	if q.Len() != 0 {
		t.Fatalf("leased elements still poppable: Len=%d", q.Len())
	}

	q.Ack(tok1)
	q.Requeue(tok3, 3, []byte("requeue-me#2"))
	_ = tok2 // abandoned: crash before ack
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	q.log.Close() // simulated crash: no Queue.Close snapshot

	q2, _ := open()
	if q2.Len() != 2 {
		t.Fatalf("recovered Len=%d, want 2", q2.Len())
	}
	p, v, ok := q2.Pop()
	if !ok || p != 2 || string(v) != "abandon-me" {
		t.Fatalf("pop 1 = %d/%q/%v, want the abandoned lease back", p, v, ok)
	}
	p, v, ok = q2.Pop()
	if !ok || p != 3 || string(v) != "requeue-me#2" {
		t.Fatalf("pop 2 = %d/%q/%v, want the requeued value", p, v, ok)
	}
	if _, _, ok := q2.Pop(); ok {
		t.Fatal("acked element resurrected")
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart once more after the clean close: the snapshot path must
	// preserve the same answer (nothing live).
	q3, _ := open()
	defer q3.Close()
	if q3.Len() != 0 {
		t.Fatalf("after clean close: Len=%d", q3.Len())
	}
}

// TestQueueLeaseSurvivesSnapshot: a lease outstanding across a snapshot
// still recovers (a grant logs nothing, so compaction keeps the element in
// the snapshot even though the in-memory backend does not).
func TestQueueLeaseSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	q, _, err := OpenQueue(Config{Dir: dir, SyncInterval: time.Millisecond}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	q.Push(5, []byte("in-flight"))
	tok, _, _, ok := q.LeaseMin()
	if !ok {
		t.Fatal("lease failed")
	}
	if err := q.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	_ = tok // consumer dies here
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	q.log.Close()

	q2, rec, err := OpenQueue(Config{Dir: dir, SyncInterval: time.Millisecond}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Len() != 1 {
		t.Fatalf("recovered Len=%d, want the in-flight element back", q2.Len())
	}
	if rec.SnapshotItems != 1 {
		t.Fatalf("snapshot covered %d items, want 1", rec.SnapshotItems)
	}
	p, v, ok := q2.Pop()
	if !ok || p != 5 || string(v) != "in-flight" {
		t.Fatalf("pop = %d/%q/%v", p, v, ok)
	}
}

// TestLegacyLeaseLog: a log from before grants stopped being logged still
// recovers. The hand-built segment marks every grant with an opLease
// record; replay must treat each as liveness-neutral, so exactly the
// leased, never-acked elements come back.
func TestLegacyLeaseLog(t *testing.T) {
	dir := t.TempDir()
	seg := segmentHeader(1)
	seg = appendPushRecord(seg, 1, 10, []byte("acked"))
	seg = appendIDRecord(seg, opLease, 1)
	seg = appendIDRecord(seg, opAck, 1)
	seg = appendPushRecord(seg, 2, 20, []byte("in-flight"))
	seg = appendIDRecord(seg, opLease, 2)
	seg = appendPushRecord(seg, 3, 30, []byte("also-in-flight"))
	seg = appendIDRecord(seg, opLease, 3)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	q, rec, err := OpenQueue(Config{Dir: dir}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if rec.Records != 7 || rec.TornTail {
		t.Fatalf("replayed %d records (torn=%v), want all 7", rec.Records, rec.TornTail)
	}
	want := []Item{{ID: 2, Priority: 20, Value: []byte("in-flight")}, {ID: 3, Priority: 30, Value: []byte("also-in-flight")}}
	if len(rec.Items) != len(want) {
		t.Fatalf("recovered %d items, want %d", len(rec.Items), len(want))
	}
	for i, w := range want {
		if g := rec.Items[i]; g.ID != w.ID || g.Priority != w.Priority || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("item %d = %+v, want %+v", i, g, w)
		}
	}
	if rec.NextID != 4 {
		t.Fatalf("NextID = %d, want 4", rec.NextID)
	}
}
