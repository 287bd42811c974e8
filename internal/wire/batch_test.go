package wire

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden wire vectors under testdata/")

// TestBatchEntryRoundTrip: entries of every batchable kind survive
// AppendBatchEntry -> NextBatchEntry with kind, arg and payload intact.
func TestBatchEntryRoundTrip(t *testing.T) {
	kinds := []Kind{OpInsert, OpDeleteMin, OpPeek, OpLen, OpPing,
		StatusOK, StatusEmpty, StatusBusy, StatusShutdown, StatusErr}
	payloads := [][]byte{nil, {}, []byte("v"), bytes.Repeat([]byte{0x5a}, 2048)}
	var enc []byte
	var want []BatchEntry
	for _, k := range kinds {
		for _, p := range payloads {
			e := BatchEntry{Kind: k, Arg: int64(len(want)) - 3, Data: p}
			var err error
			enc, err = AppendBatchEntry(enc, e)
			if err != nil {
				t.Fatalf("AppendBatchEntry(%v): %v", k, err)
			}
			want = append(want, e)
		}
	}
	rest := enc
	for i, w := range want {
		var got BatchEntry
		var err error
		got, rest, err = NextBatchEntry(rest, w.Kind.IsRequest())
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got.Kind != w.Kind || got.Arg != w.Arg || !bytes.Equal(got.Data, w.Data) {
			t.Fatalf("entry %d: got %v/%d/%dB, want %v/%d/%dB",
				i, got.Kind, got.Arg, len(got.Data), w.Kind, w.Arg, len(w.Data))
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last entry", len(rest))
	}
}

// TestAppendBatchEntriesAllocs: decoding a 64-entry OpBatch into warm
// scratch allocates nothing, and appends after what dst already held.
func TestAppendBatchEntriesAllocs(t *testing.T) {
	reqs := make([]BatchEntry, 64)
	for i := range reqs {
		reqs[i] = BatchEntry{Kind: OpInsert, Arg: int64(i), Data: []byte("payload-16-bytes")}
	}
	enc, err := AppendBatch(nil, reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Read(bytes.NewReader(enc), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := AppendBatchEntries(nil, f)
	if err != nil || len(scratch) != len(reqs) {
		t.Fatalf("decoded %d entries, err %v", len(scratch), err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		scratch, err = AppendBatchEntries(scratch[:0], f)
	}); allocs != 0 || err != nil {
		t.Fatalf("decoding into warm scratch: %v allocs per frame (err %v), want 0", allocs, err)
	}
	head := []BatchEntry{{Kind: OpPing}}
	got, err := AppendBatchEntries(head, f)
	if err != nil || len(got) != 1+len(reqs) || got[0].Kind != OpPing || got[64].Arg != 63 {
		t.Fatalf("appending after one entry: %d entries, err %v", len(got), err)
	}
	if got, err := AppendBatchEntries(head, Frame{Kind: OpBatch, Arg: 2, Data: f.Data}); !errors.Is(err, ErrBadBatch) || len(got) != 1 {
		t.Fatalf("count mismatch: %d entries, err %v; want dst unextended and ErrBadBatch", len(got), err)
	}
}

// TestBatchFrameRoundTrip: whole batch frames — request and response
// direction, traced and untraced — survive AppendBatch -> Read ->
// DecodeBatch.
func TestBatchFrameRoundTrip(t *testing.T) {
	reqs := []BatchEntry{
		{Kind: OpInsert, Arg: 17, Data: []byte("job")},
		{Kind: OpInsert, Arg: -1, Data: nil},
		{Kind: OpDeleteMin},
		{Kind: OpPeek},
		{Kind: OpLen},
		{Kind: OpPing},
	}
	resps := []BatchEntry{
		{Kind: StatusOK},
		{Kind: StatusOK},
		{Kind: StatusOK, Arg: 17, Data: []byte("job")},
		{Kind: StatusEmpty},
		{Kind: StatusOK, Arg: 2},
		{Kind: StatusErr, Data: []byte("boom")},
	}
	for _, tc := range []struct {
		name    string
		entries []BatchEntry
		kind    Kind
		trace   uint64
	}{
		{"request", reqs, OpBatch, 0},
		{"request-traced", reqs, OpBatch, 0xfeed},
		{"response", resps, StatusBatch, 0},
		{"response-traced", resps, StatusBatch, 0xbead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := AppendBatch(nil, tc.entries, tc.trace, int64(tc.trace)*3)
			if err != nil {
				t.Fatal(err)
			}
			f, _, err := Read(bytes.NewReader(enc), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if f.Kind != tc.kind || f.Arg != int64(len(tc.entries)) || f.Trace != tc.trace {
				t.Fatalf("frame = %v/%d/trace %#x, want %v/%d/%#x",
					f.Kind, f.Arg, f.Trace, tc.kind, len(tc.entries), tc.trace)
			}
			got, err := DecodeBatch(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.entries) {
				t.Fatalf("decoded %d entries, want %d", len(got), len(tc.entries))
			}
			for i, w := range tc.entries {
				if got[i].Kind != w.Kind || got[i].Arg != w.Arg || !bytes.Equal(got[i].Data, w.Data) {
					t.Fatalf("entry %d: got %+v, want %+v", i, got[i], w)
				}
			}
		})
	}
}

// TestBatchWireLayout pins the exact bytes of a two-op batch so the
// format cannot drift silently.
func TestBatchWireLayout(t *testing.T) {
	got, err := AppendBatch(nil, []BatchEntry{
		{Kind: OpInsert, Arg: 7, Data: []byte("ab")},
		{Kind: OpDeleteMin},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 9 + 13 + 2 + 13, // length: header + entry1 + entry2
		0x06,                   // OpBatch
		0, 0, 0, 0, 0, 0, 0, 2, // arg: 2 entries
		0x01,                   // entry 1: OpInsert
		0, 0, 0, 0, 0, 0, 0, 7, // arg 7
		0, 0, 0, 2, // dlen 2
		'a', 'b',
		0x02,                   // entry 2: OpDeleteMin
		0, 0, 0, 0, 0, 0, 0, 0, // arg 0
		0, 0, 0, 0, // dlen 0
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch encoding drifted:\n got %x\nwant %x", got, want)
	}
}

// TestBatchMalformed: every torn or lying batch payload is a typed
// ErrBadBatch, never a panic or a misparse.
func TestBatchMalformed(t *testing.T) {
	good, err := AppendBatch(nil, []BatchEntry{
		{Kind: OpInsert, Arg: 1, Data: []byte("xyz")},
		{Kind: OpDeleteMin},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Read(bytes.NewReader(good), nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Torn entries: every strict prefix of the payload fails typed.
	for cut := 0; cut < len(f.Data); cut++ {
		tf := Frame{Kind: OpBatch, Arg: f.Arg, Data: f.Data[:cut]}
		if _, err := DecodeBatch(tf); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("payload cut at %d/%d: err = %v, want ErrBadBatch", cut, len(f.Data), err)
		}
	}

	// Count disagreements in both directions.
	for _, n := range []int64{0, -1, 1, 3, MaxBatchOps + 1} {
		tf := Frame{Kind: OpBatch, Arg: n, Data: f.Data}
		if _, err := DecodeBatch(tf); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("declared count %d: err = %v, want ErrBadBatch", n, err)
		}
	}

	// A response status inside a request batch, and vice versa.
	misdirected := append([]byte(nil), f.Data...)
	misdirected[0] = byte(StatusOK)
	if _, err := DecodeBatch(Frame{Kind: OpBatch, Arg: 2, Data: misdirected}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("response entry in OpBatch: err = %v, want ErrBadBatch", err)
	}
	if _, err := DecodeBatch(Frame{Kind: StatusBatch, Arg: 2, Data: f.Data}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("request entry in StatusBatch: err = %v, want ErrBadBatch", err)
	}

	// Nested batches never encode and never decode.
	nested := append([]byte(nil), f.Data...)
	nested[0] = byte(OpBatch)
	if _, err := DecodeBatch(Frame{Kind: OpBatch, Arg: 2, Data: nested}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("nested OpBatch entry: err = %v, want ErrBadBatch", err)
	}
	if _, err := AppendBatchEntry(nil, BatchEntry{Kind: OpBatch}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("AppendBatchEntry(OpBatch): err = %v, want ErrBadBatch", err)
	}
	if _, err := AppendBatch(nil, []BatchEntry{{Kind: OpInsert}, {Kind: StatusOK}}, 0, 0); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("mixed-direction AppendBatch: err = %v, want ErrBadBatch", err)
	}
	if _, err := AppendBatch(nil, nil, 0, 0); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("empty AppendBatch: err = %v, want ErrBadBatch", err)
	}

	// DecodeBatch on a non-batch frame.
	if _, err := DecodeBatch(Frame{Kind: OpInsert}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("DecodeBatch(OpInsert): err = %v, want ErrBadBatch", err)
	}
}

// TestBatchPropertyRandom: random batches of random entries round-trip
// for 2000 seeds, and a random mutation of the payload either still
// decodes to internally consistent entries or fails typed — never panics.
func TestBatchPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqKinds := []Kind{OpInsert, OpDeleteMin, OpPeek, OpLen, OpPing}
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(20)
		entries := make([]BatchEntry, n)
		for i := range entries {
			e := BatchEntry{Kind: reqKinds[rng.Intn(len(reqKinds))], Arg: rng.Int63() - (1 << 62)}
			if e.Kind == OpInsert {
				e.Data = make([]byte, rng.Intn(64))
				rng.Read(e.Data)
			}
			entries[i] = e
		}
		var trace uint64
		if rng.Intn(2) == 0 {
			trace = rng.Uint64() | 1
		}
		enc, err := AppendBatch(nil, entries, trace, 42)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := Read(bytes.NewReader(enc), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(f)
		if err != nil || len(got) != n {
			t.Fatalf("iter %d: decode: %v (%d entries)", iter, err, len(got))
		}
		for i := range got {
			if got[i].Kind != entries[i].Kind || got[i].Arg != entries[i].Arg || !bytes.Equal(got[i].Data, entries[i].Data) {
				t.Fatalf("iter %d entry %d mismatch", iter, i)
			}
		}
		// One random byte flip in the payload must not panic.
		if len(f.Data) > 0 {
			mut := append([]byte(nil), f.Data...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			DecodeBatch(Frame{Kind: OpBatch, Arg: f.Arg, Data: mut})
		}
	}
}

// goldenFrame is the decoded shape a golden vector must produce.
type goldenFrame struct {
	kind    Kind
	arg     int64
	data    string
	trace   uint64
	nano    int64
	entries []BatchEntry
}

// goldenStream is the cross-compat vector set: a byte stream mixing
// pre-batch single-op frames (untraced and traced) with batch frames,
// with the exact decode every conforming implementation must produce.
// The single-op frames are byte-for-byte the pre-batch protocol — the
// proof that old streams decode identically under the batch extension.
var goldenStream = []goldenFrame{
	{kind: OpInsert, arg: 42, data: "hello"},
	{kind: OpDeleteMin},
	{kind: StatusOK, arg: 42, data: "hello"},
	{kind: OpPeek, trace: 0xabcdef, nano: 1720000000000000000},
	{kind: StatusEmpty},
	{kind: OpBatch, arg: 3, entries: []BatchEntry{
		{Kind: OpInsert, Arg: 7, Data: []byte("a")},
		{Kind: OpInsert, Arg: -9, Data: []byte("bb")},
		{Kind: OpDeleteMin},
	}},
	{kind: OpLen, arg: 0},
	{kind: StatusBatch, arg: 3, trace: 0x77, nano: 1720000000000000001, entries: []BatchEntry{
		{Kind: StatusOK},
		{Kind: StatusOK},
		{Kind: StatusOK, Arg: 7, Data: []byte("a")},
	}},
	{kind: StatusErr, data: "wire: unknown frame kind"},
	// Lease-protocol frames (0x07–0x0B, 0x86–0x87), plain and batched:
	// committed alongside the originals so the lease extension cannot
	// drift either.
	{kind: OpPopLease, arg: 30_000},
	{kind: StatusLeased, arg: 42,
		data: string(AppendLeaseGrant(nil, 0xfeed, 1720000000000000007, []byte("job")))},
	{kind: OpAck, arg: 0xfeed, trace: 0x1234, nano: 1720000000000000008},
	{kind: OpNack, arg: 0xfeee},
	{kind: StatusNoLease},
	{kind: OpInsertDelay, arg: 9, data: string(AppendDelayValue(nil, 1500, []byte("later")))},
	{kind: OpBatch, arg: 3, entries: []BatchEntry{
		{Kind: OpPopLease, Arg: 10_000, Data: []byte("dead")},
		{Kind: OpExtend, Arg: 0xfeed, Data: AppendDelayValue(nil, 60_000, nil)},
		{Kind: OpAck, Arg: 0xfeef},
	}},
	{kind: StatusBatch, arg: 3, entries: []BatchEntry{
		{Kind: StatusEmpty},
		{Kind: StatusOK, Arg: 1720000000000000099},
		{Kind: StatusNoLease},
	}},
}

func encodeGolden(t *testing.T) []byte {
	t.Helper()
	var enc []byte
	var err error
	for _, g := range goldenStream {
		if g.entries != nil {
			enc, err = AppendBatch(enc, g.entries, g.trace, g.nano)
		} else {
			enc, err = Append(enc, Frame{Kind: g.kind, Arg: g.arg, Data: []byte(g.data),
				Trace: g.trace, SendNano: g.nano})
		}
		if err != nil {
			t.Fatalf("encoding golden %v: %v", g.kind, err)
		}
	}
	return enc
}

// TestGoldenVectors decodes the checked-in byte stream and requires the
// exact expected frames, then re-encodes and requires the exact bytes —
// so neither direction of the codec can drift from the committed wire
// format, and old single-op frames keep decoding identically.
func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "frames_v1.bin")
	if *update {
		if err := os.WriteFile(path, encodeGolden(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	r := bytes.NewReader(raw)
	var buf []byte
	for i, g := range goldenStream {
		var f Frame
		f, buf, err = Read(r, buf, 0)
		if err != nil {
			t.Fatalf("golden frame %d: %v", i, err)
		}
		if f.Kind != g.kind || f.Arg != g.arg || f.Trace != g.trace || f.SendNano != g.nano {
			t.Fatalf("golden frame %d: got %v/%d/%#x/%d, want %v/%d/%#x/%d",
				i, f.Kind, f.Arg, f.Trace, f.SendNano, g.kind, g.arg, g.trace, g.nano)
		}
		if g.entries != nil {
			got, err := DecodeBatch(f)
			if err != nil || len(got) != len(g.entries) {
				t.Fatalf("golden frame %d: DecodeBatch: %v (%d entries)", i, err, len(got))
			}
			for j, w := range g.entries {
				if got[j].Kind != w.Kind || got[j].Arg != w.Arg || !bytes.Equal(got[j].Data, w.Data) {
					t.Fatalf("golden frame %d entry %d: got %+v, want %+v", i, j, got[j], w)
				}
			}
		} else if string(f.Data) != g.data {
			t.Fatalf("golden frame %d: data %q, want %q", i, f.Data, g.data)
		}
	}
	if _, _, err := Read(r, buf, 0); err != io.EOF {
		t.Fatalf("trailing bytes after the golden stream: %v", err)
	}
	if got := encodeGolden(t); !bytes.Equal(got, raw) {
		t.Fatalf("re-encoding the golden stream drifted from testdata (%d vs %d bytes); the wire format changed", len(got), len(raw))
	}
}

// FuzzBatch drives arbitrary bytes through the frame reader and the
// batch entry decoder: whatever the input, no panic, no over-budget
// allocation, and every decoded batch is internally consistent.
func FuzzBatch(f *testing.F) {
	seed, _ := AppendBatch(nil, []BatchEntry{
		{Kind: OpInsert, Arg: 1, Data: []byte("v")},
		{Kind: OpDeleteMin},
	}, 0, 0)
	f.Add(seed)
	traced, _ := AppendBatch(nil, []BatchEntry{{Kind: StatusEmpty}}, 0xbeef, 99)
	f.Add(traced)
	single, _ := Append(nil, Frame{Kind: OpInsert, Arg: 3, Data: []byte("old")})
	f.Add(append(append([]byte(nil), single...), seed...))
	leased, _ := Append(nil, Frame{Kind: StatusLeased, Arg: 7,
		Data: AppendLeaseGrant(nil, 0xfeed, 1720000000000000007, []byte("job"))})
	f.Add(leased)
	leaseBatch, _ := AppendBatch(nil, []BatchEntry{
		{Kind: OpPopLease, Arg: 10_000},
		{Kind: OpInsertDelay, Arg: 2, Data: AppendDelayValue(nil, 500, []byte("v"))},
		{Kind: OpAck, Arg: 0xfeed},
	}, 0, 0)
	f.Add(leaseBatch)
	f.Add([]byte{0, 0, 0, 22, 0x06, 0, 0, 0, 0, 0, 0, 0, 1, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var buf []byte
		for {
			fr, rb, err := Read(r, buf, 1<<16)
			buf = rb
			if err != nil {
				return
			}
			if fr.Kind == OpBatch || fr.Kind == StatusBatch {
				entries, err := DecodeBatch(fr)
				if err == nil {
					if int64(len(entries)) != fr.Arg {
						t.Fatalf("DecodeBatch returned %d entries for declared %d", len(entries), fr.Arg)
					}
					for _, e := range entries {
						if !batchable(e.Kind, fr.Kind == OpBatch) {
							t.Fatalf("DecodeBatch accepted unbatchable kind %v", e.Kind)
						}
					}
				}
			}
		}
	})
}
