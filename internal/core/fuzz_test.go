package core

import (
	"sort"
	"testing"
)

// pos is a node position: the composite (key, seq) the queue orders by.
type pos struct {
	key int64
	seq uint64
}

func (p pos) less(o pos) bool { return p.key < o.key || (p.key == o.key && p.seq < o.seq) }

// FuzzQueueModel drives the queue from a byte string against a map model:
// every even byte b inserts at position (key, seq) = ((b/2)%16 − 8, b/32),
// every odd byte deletes the minimum. The sixteen keys straddle zero and
// each takes eight seqs, so equal keys coexist, equal positions update in
// place, and the order is the composite one.
// Run with `go test -fuzz=FuzzQueueModel ./internal/core` for a deep
// exploration; plain `go test` replays the seed corpus.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{})
	f.Add([]byte{255, 254, 253, 252, 1, 3, 5})
	f.Add([]byte{10, 10, 10, 1, 10, 1, 1})
	f.Add([]byte{10, 42, 74, 42, 8, 200, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := New[int64, int64](Config{Seed: 1})
		model := map[pos]int64{}
		step := int64(0)
		for _, b := range data {
			step++
			if b%2 == 0 {
				p := pos{int64(b/2)%16 - 8, uint64(b / 32)}
				_, present := model[p]
				if res := q.InsertSeq(p.key, p.seq, step); (res == Updated) != present {
					t.Fatalf("InsertSeq%v = %v with present=%v", p, res, present)
				}
				model[p] = step
			} else {
				k, seq, v, ok := q.DeleteMinSeq()
				if len(model) == 0 {
					if ok {
						t.Fatalf("DeleteMin on empty returned %d", k)
					}
					continue
				}
				first := true
				var min pos
				for p := range model {
					if first || p.less(min) {
						min, first = p, false
					}
				}
				if got := (pos{k, seq}); !ok || got != min || v != model[min] {
					t.Fatalf("DeleteMinSeq = (%v,%d,%v), want (%v,%d,true)", got, v, ok, min, model[min])
				}
				delete(model, min)
			}
		}
		var got []pos
		q.Each(func(key int64, seq uint64) { got = append(got, pos{key, seq}) })
		want := make([]pos, 0, len(model))
		for p := range model {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		if len(got) != len(want) {
			t.Fatalf("final positions %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("final positions %v, want %v", got, want)
			}
		}
		if n, err := q.checkLevels(); err != nil || n != len(want) {
			t.Fatalf("checkLevels = %d, %v, want %d nodes", n, err, len(want))
		}
	})
}
