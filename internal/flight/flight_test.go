package flight

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilRecorder: every method on a nil recorder is a safe no-op — the
// disabled state probe sites rely on.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Name() != "" || r.Now() != 0 || r.Anomalies() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
	r.Record(KLockRetry, 1, 2)
	r.RecordAt(5, KLockRetry, 1, 2)
	r.Anomaly(KSLOBreach, 0, 0)
	if d := r.Snapshot(); len(d.Events) != 0 || d.Written != 0 {
		t.Fatalf("nil Snapshot = %+v, want zero", d)
	}
	if _, ok := r.LastAnomaly(); ok {
		t.Fatal("nil LastAnomaly reports a dump")
	}
}

// TestRecordSnapshot: recorded events come back, sorted by timestamp, with
// their trace and arg intact.
func TestRecordSnapshot(t *testing.T) {
	r := New("test", 2, 64)
	r.Record(KLockRetry, 0, 0)
	r.Record(KServerRead, 42, 1234)
	r.RecordAt(r.Now(), KServerApply, 42, 99)
	d := r.Snapshot()
	if d.Name != "test" {
		t.Fatalf("Name = %q", d.Name)
	}
	if d.Written != 3 || len(d.Events) != 3 {
		t.Fatalf("Written=%d len=%d, want 3/3", d.Written, len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TS < d.Events[i-1].TS {
			t.Fatalf("events not sorted: %v", d.Events)
		}
	}
	var read, apply bool
	for _, ev := range d.Events {
		switch ev.Kind {
		case KServerRead:
			read = ev.Trace == 42 && ev.Arg == 1234
		case KServerApply:
			apply = ev.Trace == 42 && ev.Arg == 99
		}
	}
	if !read || !apply {
		t.Fatalf("span events mangled: %v", d.Events)
	}
}

// TestRingWrap: recording past capacity retains only the newest events and
// accounts for the overwritten ones in Written − len(Events).
func TestRingWrap(t *testing.T) {
	r := New("wrap", 1, 8)
	for i := 0; i < 100; i++ {
		r.Record(KLockRetry, 0, int64(i))
	}
	d := r.Snapshot()
	if d.Written != 100 {
		t.Fatalf("Written = %d, want 100", d.Written)
	}
	if len(d.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(d.Events))
	}
	// The survivors are the newest args, 92..99.
	for _, ev := range d.Events {
		if ev.Arg < 92 {
			t.Fatalf("stale event survived the wrap: %+v", ev)
		}
	}
}

// TestSlotRounding: slot counts round up to a power of two and zero params
// select the defaults.
func TestSlotRounding(t *testing.T) {
	r := New("round", 0, 100)
	if got := len(r.shards); got != DefaultShards {
		t.Fatalf("shards = %d, want default %d", got, DefaultShards)
	}
	if got := len(r.shards[0].slots); got != 128 {
		t.Fatalf("slots = %d, want 128", got)
	}
}

// TestAnomalyCapture: an anomaly records its event, bumps the counter, and
// captures a dump with the reason; a burst of anomalies is rate-limited to
// one capture.
func TestAnomalyCapture(t *testing.T) {
	r := New("anom", 1, 64)
	r.Record(KLockRetry, 0, 7)
	r.Anomaly(KBusyReject, 0, 3)
	d, ok := r.LastAnomaly()
	if !ok {
		t.Fatal("no anomaly dump captured")
	}
	if d.Reason != KBusyReject.String() {
		t.Fatalf("Reason = %q", d.Reason)
	}
	if len(d.Events) != 2 {
		t.Fatalf("anomaly dump has %d events, want 2 (context + anomaly)", len(d.Events))
	}
	// A burst within the rate-limit window counts but does not recapture.
	for i := 0; i < 10; i++ {
		r.Anomaly(KBusyReject, 0, int64(i))
	}
	if got := r.Anomalies(); got != 11 {
		t.Fatalf("Anomalies = %d, want 11", got)
	}
	d2, _ := r.LastAnomaly()
	if len(d2.Events) != len(d.Events) {
		t.Fatalf("rate limit failed: recaptured with %d events", len(d2.Events))
	}
}

// TestConcurrentRecordSnapshot: hammer the recorder from many goroutines
// while dumping; run under -race. Dumps must stay well-formed (sorted, no
// events from the future).
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New("conc", 4, 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(KLockRetry, uint64(w+1), int64(i))
				if i%64 == 0 {
					r.Anomaly(KSLOBreach, uint64(w+1), int64(i))
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		d := r.Snapshot()
		for j := 1; j < len(d.Events); j++ {
			if d.Events[j].TS < d.Events[j-1].TS {
				t.Errorf("dump %d unsorted", i)
				break
			}
		}
		if d.TakenTS < 0 {
			t.Errorf("dump %d from the future", i)
		}
		r.LastAnomaly()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestRecordAllocs: the enabled hot path is allocation-free, and so —
// trivially — is the disabled (nil) path.
func TestRecordAllocs(t *testing.T) {
	r := New("alloc", 2, 64)
	r.Record(KLockRetry, 0, 0) // warm the token pool
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(KLockRetry, 1, 2)
	}); n != 0 {
		t.Fatalf("enabled Record allocates %.1f per op, want 0", n)
	}
	var nilR *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilR.Record(KLockRetry, 1, 2)
	}); n != 0 {
		t.Fatalf("nil Record allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.RecordAt(5, KServerFlush, 9, 9)
	}); n != 0 {
		t.Fatalf("RecordAt allocates %.1f per op, want 0", n)
	}
}

// TestDumpJSONRoundTrip: dumps marshal with symbolic kind names and load
// back losslessly.
func TestDumpJSONRoundTrip(t *testing.T) {
	r := New("json", 1, 16)
	r.Record(KServerRead, 7, 123)
	r.Record(KSweepFallback, 0, 2)
	d := r.Snapshot()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"server.read"`; !jsonContains(raw, want) {
		t.Fatalf("marshal lacks symbolic kind %s: %s", want, raw)
	}
	var back Dump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(d.Events) {
		t.Fatalf("round trip lost events: %d != %d", len(back.Events), len(d.Events))
	}
	for i := range d.Events {
		if back.Events[i] != d.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back.Events[i], d.Events[i])
		}
	}
	// Unknown kinds degrade to KNone rather than failing the load.
	var ev Event
	if err := json.Unmarshal([]byte(`{"ts":1,"kind":"from.the.future"}`), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KNone {
		t.Fatalf("unknown kind = %v, want KNone", ev.Kind)
	}
}

func jsonContains(raw []byte, sub string) bool {
	return len(raw) > 0 && len(sub) > 0 && (string(raw) != "" && containsStr(string(raw), sub))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestKindNames: every defined kind has a distinct symbolic name and
// KindOf inverts String.
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := KNone; k <= KDrainStart; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %v and %v share the name %q", prev, k, name)
		}
		seen[name] = k
		if k != KNone && KindOf(name) != k {
			t.Fatalf("KindOf(%q) = %v, want %v", name, KindOf(name), k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind string = %q", Kind(200).String())
	}
}

// TestNow: the recorder clock is monotone and RecordAt honours the given
// stamp.
func TestNow(t *testing.T) {
	r := New("clock", 1, 16)
	a := r.Now()
	time.Sleep(time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Fatalf("clock not advancing: %d then %d", a, b)
	}
	r.RecordAt(777, KServerBatch, 0, 4)
	d := r.Snapshot()
	if len(d.Events) != 1 || d.Events[0].TS != 777 {
		t.Fatalf("RecordAt stamp lost: %+v", d.Events)
	}
}
