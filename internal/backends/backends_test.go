package backends_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"skipqueue"
	"skipqueue/internal/backends"
)

// FuzzOps drives one registry row from a byte string against its
// contract's Model. The first byte picks the row through its low three
// bits (modulo the row count) and every tuning count (1 to 16) through its
// upper bits, so a seed reaches the row it names however many rows there
// are, up to eight; then every
// even byte pushes key b/2 and every odd byte checks a Peek and a Pop. Len
// must then agree, and a final drain must return exactly what the model
// holds before the queue answers EMPTY.
//
// Sequentially a Pop never finds a waiting offer, so on the elimination
// rows every eligible Push publishes, times out and falls through: the
// seeds' hot-key run exercises that path while the answers stay the inner
// queue's, and no exchange may ever be recorded.
//
// Run with `go test -fuzz=FuzzOps ./internal/backends` for a deep
// exploration; plain `go test` replays one seed per row, then the corpora
// the sharded and elimination queues were once fuzzed with alone.
func FuzzOps(f *testing.F) {
	ops := []byte{0, 2, 4, 1, 1, 1, 10, 10, 10, 1, 10, 1, 1, 255, 254, 253, 252, 1, 3, 5}
	var hot, asc []byte
	for i := 0; i < 16; i++ {
		hot = append(hot, 0, 1) // hot key: every Push is eliminable
	}
	for b := byte(0); b < 16; b++ {
		asc = append(asc, 2*b) // ascending: none is
	}
	ops = append(append(ops, hot...), asc...)
	for i := range backends.Rows {
		f.Add(append([]byte{byte(i) | byte(3+i)<<3}, ops...))
	}
	seed := func(name string, n int, ops ...byte) {
		for i, r := range backends.Rows {
			if r.Name == name {
				sel := byte(i) | byte(n-1)<<3
				if row, m := decodeSel(sel); row.Name != name || m != n {
					f.Fatalf("seed %s/%d decodes to %s/%d", name, n, row.Name, m)
				}
				f.Add(append([]byte{sel}, ops...))
				return
			}
		}
		f.Fatalf("no row %q", name)
	}
	seed("sharded", 1)
	seed("sharded", 4, 0, 2, 4, 1, 1, 1)
	seed("sharded", 1, 255, 254, 253, 252, 1, 3, 5)
	seed("sharded", 2, 10, 10, 10, 1, 10, 1, 1)
	seed("sharded", 9, 2, 2, 2, 2, 1, 1, 1, 1, 1)
	seed("elim", 1)
	seed("elim", 5, hot...)
	seed("elim", 5, append(asc, bytes.Repeat([]byte{1}, 16)...)...)
	seed("elim", 2, 10, 10, 10, 1, 10, 1, 1)
	seed("elim", 8, 2, 4, 1, 1, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sel byte
		if len(data) > 0 {
			sel, data = data[0], data[1:]
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		row, n := decodeSel(sel)
		q := row.New(backends.Params{Shards: n, ElimSlots: n, SprayK: n,
			Opts: []skipqueue.Option{skipqueue.WithSeed(1), skipqueue.WithMetrics()}})
		m := row.Contract.Model()
		for step, b := range data {
			if b%2 == 0 {
				v := binary.BigEndian.AppendUint64(nil, uint64(step))
				q.Push(int64(b/2), v)
				m.Push(int64(b/2), v)
				continue
			}
			if err := m.Peek(q.Peek()); err != nil {
				t.Fatalf("%s step %d: %v", row.Name, step, err)
			}
			if err := m.Pop(q.Pop()); err != nil {
				t.Fatalf("%s step %d: %v", row.Name, step, err)
			}
		}
		if got := q.Len(); got != m.Len() {
			t.Fatalf("%s: Len = %d, want %d", row.Name, got, m.Len())
		}
		for held := m.Len(); held >= 0; held-- {
			if err := m.Pop(q.Pop()); err != nil {
				t.Fatalf("%s drain: %v", row.Name, err)
			}
		}
		if hits := q.Snapshot().Counter("exchange.hits"); hits != 0 {
			t.Fatalf("%s: sequential run recorded %d exchange hits", row.Name, hits)
		}
	})
}

// decodeSel splits FuzzOps's first byte into the row and the tuning count.
func decodeSel(sel byte) (backends.Row, int) {
	return backends.Rows[int(sel&7)%len(backends.Rows)], 1 + int(sel>>3)%16
}

// TestServerDocListsRows: the -backend row of docs/SERVER.md's flag table
// names exactly the registry rows, in order.
func TestServerDocListsRows(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range backends.Rows {
		want = append(want, r.Name)
	}
	for _, line := range strings.Split(string(doc), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "-backend string")
		if !ok {
			continue
		}
		list, _, _ := strings.Cut(rest, "(default")
		got := strings.Fields(strings.ReplaceAll(list, "|", " "))
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("docs/SERVER.md -backend lists %v, registry has %v", got, want)
		}
		return
	}
	t.Fatal("docs/SERVER.md has no -backend flag row")
}
