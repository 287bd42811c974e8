package skipqueue

import (
	"encoding/json"
	"net"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"skipqueue/internal/lease"
	"skipqueue/internal/obs"
	"skipqueue/internal/server"
	"skipqueue/internal/wal"
	"skipqueue/internal/wire"
)

// TestSnapshotDisabledByDefault: without WithMetrics every family returns the
// zero Snapshot and pays only nil checks.
func TestSnapshotDisabledByDefault(t *testing.T) {
	for name, q := range map[string]Instrumented{
		"Queue":          New[int64, int](),
		"PQ":             NewPQ[int](),
		"LockFree":       NewLockFree[int64, int](),
		"Heap":           NewHeap[int64, int](1 << 10),
		"GlobalLockHeap": NewGlobalLockHeap[int64, int](),
		"FunnelList":     NewFunnelList[int64, int](),
	} {
		if s := q.Snapshot(); s.Enabled {
			t.Errorf("%s: metrics enabled without WithMetrics", name)
		}
	}
}

// TestMetricsOffIsZero: the multiset families TestSnapshotDisabledByDefault
// does not list count always, yet without WithMetrics they too return the
// zero Snapshot.
func TestMetricsOffIsZero(t *testing.T) {
	for name, q := range map[string]interface {
		Instrumented
		Push(int64, int)
		Pop() (int64, int, bool)
	}{
		"LockFreePQ":    NewLockFreePQ[int](),
		"GlobalHeapPQ":  NewGlobalHeapPQ[int](),
		"ShardedPQ":     NewShardedPQ[int](2),
		"SprayPQ":       NewSprayPQ[int](2),
		"ElimShardedPQ": NewElimShardedPQ[int](0, 2),
	} {
		q.Push(1, 1)
		q.Pop()
		q.Pop()
		if s := q.Snapshot(); s.Enabled {
			t.Errorf("%s: snapshot enabled without WithMetrics: %+v", name, s)
		}
	}
}

// TestSnapshotAllFamilies drives every family through the Instrumented
// interface with metrics on and checks that the baselines' operation
// histograms counted every call. The skiplist family (empty keys) keeps
// counters only.
func TestSnapshotAllFamilies(t *testing.T) {
	const n = 300
	type family struct {
		q      Instrumented
		insert func(int64)
		del    func() bool
		insKey string
		delKey string
	}
	sq := New[int64, int](WithMetrics())
	pq := NewPQ[int](WithMetrics())
	lf := NewLockFree[int64, int](WithMetrics())
	hp := NewHeap[int64, int](1<<12, WithMetrics())
	gl := NewGlobalLockHeap[int64, int](WithMetrics())
	fl := NewFunnelList[int64, int](WithMetrics())
	families := map[string]family{
		"Queue": {sq, func(k int64) { sq.Insert(k, 0) },
			func() bool { _, _, ok := sq.DeleteMin(); return ok }, "", ""},
		"PQ": {pq, func(k int64) { pq.Push(k, 0) },
			func() bool { _, _, ok := pq.Pop(); return ok }, "", ""},
		"LockFree": {lf, func(k int64) { lf.Insert(k, 0) },
			func() bool { _, _, ok := lf.DeleteMin(); return ok }, "", ""},
		"Heap": {hp, func(k int64) { _ = hp.Insert(k, 0) },
			func() bool { _, _, ok := hp.DeleteMin(); return ok }, "insert", "deletemin"},
		"GlobalLockHeap": {gl, func(k int64) { gl.Insert(k, 0) },
			func() bool { _, _, ok := gl.DeleteMin(); return ok }, "insert", "deletemin"},
		"FunnelList": {fl, func(k int64) { fl.Insert(k, 0) },
			func() bool { _, _, ok := fl.DeleteMin(); return ok }, "insert", "deletemin"},
	}
	for name, f := range families {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(w+1) << 32
				for i := int64(0); i < n; i++ {
					f.insert(base + i)
				}
				for i := 0; i < n; i++ {
					f.del()
				}
			}(w)
		}
		wg.Wait()

		s := f.q.Snapshot()
		if !s.Enabled {
			t.Errorf("%s: snapshot not enabled", name)
			continue
		}
		if f.insKey != "" {
			ins, ok := s.Hist(f.insKey)
			if !ok || ins.Count != 4*n {
				t.Errorf("%s: insert hist count = %d (present=%v), want %d", name, ins.Count, ok, 4*n)
			}
			del, ok := s.Hist(f.delKey)
			if !ok || del.Count != 4*n {
				t.Errorf("%s: deletemin hist count = %d (present=%v), want %d", name, del.Count, ok, 4*n)
			}
		}
		if _, err := json.Marshal(s); err != nil {
			t.Errorf("%s: snapshot does not marshal: %v", name, err)
		}
		if s.String() == "" {
			t.Errorf("%s: empty table rendering", name)
		}
	}
}

// TestObservabilityDocListsServiceProbes: pqd's service layers — a server
// over a lease table over a WAL queue, built from configs without any
// metrics switch — publish every counter and histogram as a row of their
// tables in docs/OBSERVABILITY.md, and every row is published. An OpBatch
// counts its entries in frames.insert.
func TestObservabilityDocListsServiceProbes(t *testing.T) {
	q, _, err := wal.OpenQueue(wal.Config{Dir: t.TempDir()}, NewPQ[[]byte]())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	tbl := lease.New(lease.Config{Tick: -1}, q)
	defer tbl.Close()
	srv := server.New(server.Config{Backend: tbl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// call(want)(out, err) sends one encoded request frame and requires a
	// reply of kind want.
	var rbuf []byte
	call := func(want wire.Kind) func([]byte, error) wire.Frame {
		return func(out []byte, err error) wire.Frame {
			t.Helper()
			if err == nil {
				_, err = nc.Write(out)
			}
			var f wire.Frame
			if err == nil {
				f, rbuf, err = wire.Read(nc, rbuf, wire.DefaultMaxFrame)
			}
			if err != nil || f.Kind != want {
				t.Fatalf("reply %v (err %v), want %v", f.Kind, err, want)
			}
			return f
		}
	}
	for p := int64(0); p < 3; p++ {
		call(wire.StatusOK)(wire.Append(nil, wire.Frame{Kind: wire.OpInsert, Arg: p}))
	}
	call(wire.StatusBatch)(wire.AppendBatch(nil, []wire.BatchEntry{{Kind: wire.OpInsert, Arg: 3}, {Kind: wire.OpInsert, Arg: 4}}, 0, 0))
	grant := call(wire.StatusLeased)(wire.Append(nil, wire.Frame{Kind: wire.OpPopLease}))
	id, _, _, err := wire.ParseLeaseGrant(grant.Data)
	if err != nil {
		t.Fatal(err)
	}
	call(wire.StatusOK)(wire.Append(nil, wire.Frame{Kind: wire.OpAck, Arg: int64(id)}))
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Counter("frames.insert"); got != 5 {
		t.Errorf("frames.insert = %d, want 5: three frames plus two batch entries", got)
	}

	rows := docProbeRows(t)
	for _, snap := range []obs.Snapshot{srv.Snapshot(), srv.BatchSnapshot(), q.Log().Snapshot(), tbl.Snapshot()} {
		documented := map[string]bool{}
		for _, r := range rows[snap.Name] {
			documented[r] = true
		}
		if len(documented) == 0 {
			t.Errorf("docs/OBSERVABILITY.md has no table for %s", snap.Name)
		}
		var names []string
		for _, c := range snap.Counters {
			names = append(names, c.Name)
		}
		for _, h := range snap.Hists {
			names = append(names, h.Name)
		}
		published := map[string]bool{}
		for _, n := range names {
			published[n] = true
			if !documented[n] {
				t.Errorf("%s publishes %q, which docs/OBSERVABILITY.md does not list", snap.Name, n)
			}
		}
		for r := range documented {
			if !published[r] {
				t.Errorf("docs/OBSERVABILITY.md lists %s probe %q, which is not published", snap.Name, r)
			}
		}
	}
}

// docProbeRows returns, per "### `set`" section of docs/OBSERVABILITY.md,
// the probe names in the first cell of each table row.
func docProbeRows(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile("^### `([a-z.]+)`")
	name := regexp.MustCompile("`([^`]+)`")
	rows := map[string][]string{}
	var set string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			set = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			set = ""
		}
		cells := strings.Split(line, "|")
		if set == "" || len(cells) < 3 || cells[0] != "" {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			rows[set] = append(rows[set], m[1])
		}
	}
	return rows
}

// TestObservabilityDocListsProbes: for each structure of the skiplist
// family, every counter its snapshot publishes is a row of its table in
// docs/OBSERVABILITY.md (or of the substrate's table it merges in), every
// row of its own table is published, and no histogram is published.
func TestObservabilityDocListsProbes(t *testing.T) {
	rows := docProbeRows(t)
	shardNN := regexp.MustCompile(`^shard\.\d+\.`)
	for _, tc := range []struct {
		sets []string // the structure's own set, then any it merges in
		q    interface {
			Instrumented
			Push(int64, int)
			Pop() (int64, int, bool)
		}
	}{
		{[]string{"skipqueue.core"}, NewPQ[int](WithMetrics())},
		{[]string{"skipqueue.lockfree"}, NewLockFreePQ[int](WithMetrics())},
		{[]string{"skipqueue.sharded", "skipqueue.core"}, NewShardedPQ[int](4, WithMetrics())},
		{[]string{"skipqueue.spray", "skipqueue.core"}, NewSprayPQ[int](4, WithMetrics())},
		{[]string{"skipqueue.elim", "skipqueue.core"}, NewElimPQ[int](0, WithMetrics())},
	} {
		for k := int64(0); k < 20; k++ {
			tc.q.Push(k, 0)
		}
		for {
			if _, _, ok := tc.q.Pop(); !ok {
				break
			}
		}
		documented := map[string]bool{}
		for _, set := range tc.sets {
			for _, r := range rows[set] {
				documented[r] = true
			}
		}
		snap := tc.q.Snapshot()
		published := map[string]bool{}
		for _, c := range snap.Counters {
			n := shardNN.ReplaceAllString(c.Name, "shard.NN.")
			published[n] = true
			if !documented[n] {
				t.Errorf("%s publishes %q, which docs/OBSERVABILITY.md does not list", tc.sets[0], c.Name)
			}
		}
		for _, h := range snap.Hists {
			t.Errorf("%s publishes histogram %q", tc.sets[0], h.Name)
		}
		if len(rows[tc.sets[0]]) == 0 {
			t.Errorf("docs/OBSERVABILITY.md has no table for %s", tc.sets[0])
		}
		for _, r := range rows[tc.sets[0]] {
			if !published[r] {
				t.Errorf("docs/OBSERVABILITY.md lists %s probe %q, which is not published", tc.sets[0], r)
			}
		}
	}
}
