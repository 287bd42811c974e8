package lease_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"skipqueue/internal/lease"
)

// These benchmarks time the lease table's deadline bookkeeping through the
// exported API only. The backend is a bare stack, so what they measure is
// the table: its map, its deadline structure and its expiry timer.
//
//	go test -run '^$' -bench 'GrantAck|Extend' -benchtime 200000x ./internal/lease/
//	go test -run '^$' -bench ExpirySweep -benchtime 20x ./internal/lease/

type stackEl struct {
	prio int64
	val  []byte
}

// stack is the cheapest multiset.Queue there is: it ignores priorities.
type stack struct{ els []stackEl }

func (s *stack) Push(p int64, v []byte) { s.els = append(s.els, stackEl{p, v}) }

func (s *stack) Pop() (int64, []byte, bool) {
	n := len(s.els)
	if n == 0 {
		return 0, nil, false
	}
	e := s.els[n-1]
	s.els[n-1] = stackEl{}
	s.els = s.els[:n-1]
	return e.prio, e.val, true
}

func (s *stack) Peek() (int64, []byte, bool) {
	if len(s.els) == 0 {
		return 0, nil, false
	}
	e := s.els[len(s.els)-1]
	return e.prio, e.val, true
}

func (s *stack) Len() int { return len(s.els) }

var payload = []byte("payload")

// leased returns a table with the background expiry on (as pqd runs it)
// holding live leases of a one-hour TTL, and their IDs in grant order.
func leased(b *testing.B, live int) (*lease.Table, []uint64) {
	b.Helper()
	tbl := lease.New(lease.Config{TTL: time.Hour}, &stack{})
	b.Cleanup(tbl.Close)
	ids := make([]uint64, live)
	for i := range ids {
		tbl.Push(0, payload)
		id, _, _, _, ok := tbl.PopLease(0, false)
		if !ok {
			b.Fatal("grant failed")
		}
		ids[i] = id
	}
	return tbl, ids
}

// BenchmarkGrantAck is one push, one grant and one ack per op, with `live`
// leases outstanding throughout. fifo acks the oldest lease, random any.
func BenchmarkGrantAck(b *testing.B) {
	for _, live := range []int{1, 1_000, 100_000, 1_000_000} {
		for _, order := range []string{"fifo", "random"} {
			b.Run(fmt.Sprintf("live=%d/%s", live, order), func(b *testing.B) {
				tbl, ids := leased(b, live)
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl.Push(0, payload)
					id, _, _, _, _ := tbl.PopLease(0, false)
					j := i % live
					if order == "random" {
						j = rng.Intn(live)
					}
					if !tbl.Ack(ids[j]) {
						b.Fatal("ack failed")
					}
					ids[j] = id
				}
			})
		}
	}
}

// BenchmarkExtend renews 10⁵ live leases round-robin, the pattern of
// clients that heartbeat every lease they hold.
func BenchmarkExtend(b *testing.B) {
	const live = 100_000
	tbl, ids := leased(b, live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Extend(ids[i%live], 0); !ok {
			b.Fatal("extend failed")
		}
	}
}

// BenchmarkExpirySweep times one Sweep that expires and requeues 10⁴
// leases; ns/lease is the per-expiry cost. The sweeper is off, and the
// untimed sleep lets every deadline pass on any deadline granularity.
func BenchmarkExpirySweep(b *testing.B) {
	const n = 10_000
	tbl := lease.New(lease.Config{TTL: time.Hour, Tick: -1}, &stack{})
	b.Cleanup(tbl.Close)
	for i := 0; i < n; i++ {
		tbl.Push(0, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < n; j++ {
			if _, _, _, _, ok := tbl.PopLease(time.Nanosecond, false); !ok {
				b.Fatal("grant failed")
			}
		}
		time.Sleep(25 * time.Millisecond)
		b.StartTimer()
		tbl.Sweep()
		if tbl.Outstanding() != 0 {
			b.Fatalf("%d leases survived the sweep", tbl.Outstanding())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lease")
}
