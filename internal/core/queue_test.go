package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func newIntQueue(t testing.TB, cfg Config) *Queue[int64, int64] {
	t.Helper()
	return New[int64, int64](cfg)
}

func TestEmptyQueue(t *testing.T) {
	q := newIntQueue(t, Config{})
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty queue returned ok")
	}
	if _, _, ok := q.PeekMin(); ok {
		t.Fatal("PeekMin on empty queue returned ok")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if st := q.Stats(); st.Empties != 1 {
		t.Fatalf("Empties = %d, want 1", st.Empties)
	}
}

func TestInsertDeleteSingle(t *testing.T) {
	q := newIntQueue(t, Config{})
	if got := q.Insert(42, 420); got != Inserted {
		t.Fatalf("Insert = %v, want Inserted", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	k, v, ok := q.DeleteMin()
	if !ok || k != 42 || v != 420 {
		t.Fatalf("DeleteMin = (%d,%d,%v), want (42,420,true)", k, v, ok)
	}
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("second DeleteMin returned ok")
	}
}

func TestUpdateInPlace(t *testing.T) {
	q := newIntQueue(t, Config{})
	q.Insert(7, 1)
	if got := q.Insert(7, 2); got != Updated {
		t.Fatalf("Insert of duplicate key = %v, want Updated", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	_, v, ok := q.DeleteMin()
	if !ok || v != 2 {
		t.Fatalf("DeleteMin value = %d,%v, want 2,true", v, ok)
	}
}

func TestSortedDrain(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		q := New[int64, int64](Config{Relaxed: relaxed, Seed: 1})
		rng := rand.New(rand.NewSource(7))
		const n = 2000
		keys := rng.Perm(n)
		for _, k := range keys {
			q.Insert(int64(k), int64(k)*10)
		}
		if q.Len() != n {
			t.Fatalf("relaxed=%v: Len = %d, want %d", relaxed, q.Len(), n)
		}
		if cnt, err := q.checkLevels(); err != nil || cnt != n {
			t.Fatalf("relaxed=%v: invariant: cnt=%d err=%v", relaxed, cnt, err)
		}
		for i := 0; i < n; i++ {
			k, v, ok := q.DeleteMin()
			if !ok || k != int64(i) || v != int64(i)*10 {
				t.Fatalf("relaxed=%v: DeleteMin #%d = (%d,%d,%v)", relaxed, i, k, v, ok)
			}
		}
		if _, _, ok := q.DeleteMin(); ok {
			t.Fatal("drained queue returned an element")
		}
	}
}

func TestPeekMin(t *testing.T) {
	q := newIntQueue(t, Config{})
	for _, k := range []int64{30, 10, 20} {
		q.Insert(k, k)
	}
	k, v, ok := q.PeekMin()
	if !ok || k != 10 || v != 10 {
		t.Fatalf("PeekMin = (%d,%d,%v), want (10,10,true)", k, v, ok)
	}
	if q.Len() != 3 {
		t.Fatalf("PeekMin changed Len to %d", q.Len())
	}
	q.DeleteMin()
	if k, _, _ := q.PeekMin(); k != 20 {
		t.Fatalf("PeekMin after delete = %d, want 20", k)
	}
}

func TestCollectKeys(t *testing.T) {
	q := newIntQueue(t, Config{})
	want := []int64{1, 3, 5, 9}
	for _, k := range []int64{9, 3, 1, 5} {
		q.Insert(k, 0)
	}
	got := q.CollectKeys(nil)
	if len(got) != len(want) {
		t.Fatalf("CollectKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CollectKeys = %v, want %v", got, want)
		}
	}
}

func TestStringKeys(t *testing.T) {
	q := New[string, int](Config{})
	words := []string{"pear", "apple", "quince", "banana"}
	for i, w := range words {
		q.Insert(w, i)
	}
	var got []string
	for {
		k, _, ok := q.DeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if !sort.StringsAreSorted(got) || len(got) != len(words) {
		t.Fatalf("string drain = %v", got)
	}
}

func TestMaxLevelRespected(t *testing.T) {
	q := New[int64, int64](Config{MaxLevel: 3, P: 0.9, Seed: 3})
	for i := int64(0); i < 500; i++ {
		q.Insert(i, i)
	}
	for n := q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		if n.level() > 3 {
			t.Fatalf("node level %d exceeds MaxLevel 3", n.level())
		}
	}
	if _, err := q.checkLevels(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxLevel != DefaultMaxLevel || cfg.P != DefaultP {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = Config{MaxLevel: -1, P: 1.5}.withDefaults()
	if cfg.MaxLevel != DefaultMaxLevel || cfg.P != DefaultP {
		t.Fatalf("normalized = %+v", cfg)
	}
}

func TestStatsCounters(t *testing.T) {
	q := newIntQueue(t, Config{})
	q.Insert(1, 1)
	q.Insert(1, 2)
	q.Insert(2, 2)
	q.DeleteMin()
	q.DeleteMin()
	q.DeleteMin()
	st := q.Stats()
	if st.Inserts != 2 || st.Updates != 1 || st.DeleteMins != 2 || st.Empties != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ScanSteps == 0 {
		t.Fatal("ScanSteps did not advance")
	}
}

// TestLenNeverNegative: a delete can claim a node and count itself before
// the node's Insert has counted, so a shard's DeleteMins may run ahead of
// every Insert; Len must then report 0, never a negative length.
func TestLenNeverNegative(t *testing.T) {
	q := newIntQueue(t, Config{})
	q.stats[3].deleteMins.Add(1)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d with DeleteMins ahead of Inserts, want 0", n)
	}
	q.stats[5].inserts.Add(3)
	if n := q.Len(); n != 2 {
		t.Fatalf("Len = %d across shards, want 2", n)
	}
}

// TestSharedWordsOwnLines: every word an operation writes (the clock,
// levelSeed, each stats shard's counters) lies at least a cache line from
// every other field of the Queue, so those writes never take away a line
// that a traversal reads, or one that another operation writes. Distances
// are between the nearest bytes, so they hold wherever the Queue lands.
func TestSharedWordsOwnLines(t *testing.T) {
	var q Queue[int64, int64]
	type span struct {
		name      string
		off, size uintptr
	}
	written := []span{
		{"clock", unsafe.Offsetof(q.clock), unsafe.Sizeof(q.clock)},
		{"levelSeed", unsafe.Offsetof(q.levelSeed), unsafe.Sizeof(q.levelSeed)},
	}
	counters := unsafe.Offsetof(q.stats[0].lockRetries) + unsafe.Sizeof(q.stats[0].lockRetries)
	for i := range q.stats {
		off := unsafe.Offsetof(q.stats) + uintptr(i)*unsafe.Sizeof(q.stats[0])
		written = append(written, span{fmt.Sprintf("stats[%d]", i), off, counters})
	}
	// Every other named field is read-mostly, including any added later.
	var readMostly []span
	typ := reflect.TypeOf(&q).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Name {
		case "_", "clock", "levelSeed", "stats":
			continue
		}
		readMostly = append(readMostly, span{f.Name, f.Offset, f.Type.Size()})
	}
	gap := func(a, b span) int {
		if a.off > b.off {
			a, b = b, a
		}
		return int(b.off) - int(a.off+a.size)
	}
	for i, w := range written {
		for _, o := range append(readMostly, written[i+1:]...) {
			if g := gap(w, o); g < cacheLine {
				t.Errorf("%s and %s are %d B apart, want >= %d", w.name, o.name, g, cacheLine)
			}
		}
	}
}

// TestNodeSizeClasses: the node header and its classes up to node8 each
// fill a Go size class exactly, so a field added to node moves every node
// up a class and fails here by name. The tall classes are pinned too.
func TestNodeSizeClasses(t *testing.T) {
	var (
		n   node[int64, []byte]
		n1  node1[int64, []byte]
		n2  node2[int64, []byte]
		n4  node4[int64, []byte]
		n8  node8[int64, []byte]
		n16 node16[int64, []byte]
		n32 node32[int64, []byte]
		n64 node64[int64, []byte]
	)
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"node", unsafe.Sizeof(n), 48},
		{"node1", unsafe.Sizeof(n1), 64},
		{"node2", unsafe.Sizeof(n2), 80},
		{"node4", unsafe.Sizeof(n4), 112},
		{"node8", unsafe.Sizeof(n8), 176},
		{"node16", unsafe.Sizeof(n16), 304},
		{"node32", unsafe.Sizeof(n32), 560},
		{"node64", unsafe.Sizeof(n64), 1072},
	} {
		if c.got != c.want {
			t.Errorf("%s[int64, []byte] is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestTowerAtFixedOffset: in every size class the tower starts where the
// node ends, and link(i) is the class's tower[i] for every level the node
// has. link checks no bound (see link); the race build's checkptr does.
func TestTowerAtFixedOffset(t *testing.T) {
	t.Run("int64,[]byte", checkTowerAtFixedOffset[int64, []byte])
	t.Run("string,[]byte", checkTowerAtFixedOffset[string, []byte])
	t.Run("int64,int64", checkTowerAtFixedOffset[int64, int64])
}

func checkTowerAtFixedOffset[K ordered, V any](t *testing.T) {
	var (
		b1  node1[K, V]
		b2  node2[K, V]
		b4  node4[K, V]
		b8  node8[K, V]
		b16 node16[K, V]
		b32 node32[K, V]
		b64 node64[K, V]
	)
	classes := []struct {
		levels         int
		offset, header uintptr
		tower          func(*node[K, V]) []link[K, V]
	}{
		{1, unsafe.Offsetof(b1.tower), unsafe.Sizeof(b1.node),
			func(n *node[K, V]) []link[K, V] { return (*node1[K, V])(unsafe.Pointer(n)).tower[:] }},
		{2, unsafe.Offsetof(b2.tower), unsafe.Sizeof(b2.node),
			func(n *node[K, V]) []link[K, V] { return (*node2[K, V])(unsafe.Pointer(n)).tower[:] }},
		{4, unsafe.Offsetof(b4.tower), unsafe.Sizeof(b4.node),
			func(n *node[K, V]) []link[K, V] { return (*node4[K, V])(unsafe.Pointer(n)).tower[:] }},
		{8, unsafe.Offsetof(b8.tower), unsafe.Sizeof(b8.node),
			func(n *node[K, V]) []link[K, V] { return (*node8[K, V])(unsafe.Pointer(n)).tower[:] }},
		{16, unsafe.Offsetof(b16.tower), unsafe.Sizeof(b16.node),
			func(n *node[K, V]) []link[K, V] { return (*node16[K, V])(unsafe.Pointer(n)).tower[:] }},
		{32, unsafe.Offsetof(b32.tower), unsafe.Sizeof(b32.node),
			func(n *node[K, V]) []link[K, V] { return (*node32[K, V])(unsafe.Pointer(n)).tower[:] }},
		{maxTowerLevel, unsafe.Offsetof(b64.tower), unsafe.Sizeof(b64.node),
			func(n *node[K, V]) []link[K, V] { return (*node64[K, V])(unsafe.Pointer(n)).tower[:] }},
	}
	smallest := 1
	for _, c := range classes {
		if c.offset != c.header {
			t.Errorf("class of %d levels: tower at offset %d, node is %d B", c.levels, c.offset, c.header)
		}
		// The smallest and the tallest tower the class holds.
		for _, level := range []int{smallest, c.levels} {
			var key K
			var value V
			n := newNode(key, 0, value, level)
			tower := c.tower(n)
			for i := range level {
				if n.link(i) != &tower[i] {
					t.Errorf("level %d: link(%d) is not tower[%d] of the %d-level class", level, i, i, c.levels)
				}
			}
		}
		smallest = c.levels + 1
	}
}

// TestTowerMaxLevelCap: a MaxLevel past the tallest class is capped at it,
// and a queue of tall towers stays well formed.
func TestTowerMaxLevelCap(t *testing.T) {
	q := New[int64, int64](Config{MaxLevel: 100, P: 0.9, Seed: 3})
	if got := q.MaxLevel(); got != maxTowerLevel {
		t.Fatalf("MaxLevel() = %d, want %d", got, maxTowerLevel)
	}
	const n = 10_000
	for i := int64(0); i < n; i++ {
		q.InsertSeq(i*7919%n, uint64(i), i)
	}
	if c, err := q.checkLevels(); err != nil || c != n {
		t.Fatalf("checkLevels = %d, %v, want %d nodes", c, err, n)
	}
}

// TestPropertySequentialModel cross-checks the queue against a sorted-slice
// model over random operation strings.
func TestPropertySequentialModel(t *testing.T) {
	f := func(ops []int16, relaxed bool, seed uint64) bool {
		q := New[int64, int64](Config{Relaxed: relaxed, Seed: seed})
		model := map[int64]int64{}
		for _, op := range ops {
			if op >= 0 { // insert key op%64
				k := int64(op % 64)
				q.Insert(k, k+1000)
				model[k] = k + 1000
			} else { // delete-min
				k, v, ok := q.DeleteMin()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				var min int64 = 1 << 62
				for mk := range model {
					if mk < min {
						min = mk
					}
				}
				if !ok || k != min || v != model[min] {
					return false
				}
				delete(model, min)
			}
		}
		got := q.CollectKeys(nil)
		if len(got) != len(model) {
			return false
		}
		for _, k := range got {
			if _, present := model[k]; !present {
				return false
			}
		}
		_, err := q.checkLevels()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLevelDistribution checks that randomLevel respects the cap and
// stays geometric-ish for several probabilities.
func TestPropertyLevelDistribution(t *testing.T) {
	for _, p := range []float64{0.25, 0.5, 0.75} {
		q := New[int64, int64](Config{P: p, MaxLevel: 16, Seed: 42})
		counts := make([]int, 17)
		const draws = 200000
		for i := 0; i < draws; i++ {
			l := q.randomLevel()
			if l < 1 || l > 16 {
				t.Fatalf("p=%v: level %d out of range", p, l)
			}
			counts[l]++
		}
		frac1 := float64(counts[1]) / draws
		if want := 1 - p; frac1 < want-0.02 || frac1 > want+0.02 {
			t.Fatalf("p=%v: fraction at level 1 = %.3f, want about %.3f", p, frac1, 1-p)
		}
	}
}

func TestConcurrentInsertThenDrain(t *testing.T) {
	q := newIntQueue(t, Config{Seed: 9})
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := int64(i*workers + w)
				q.Insert(k, k)
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", q.Len(), workers*perWorker)
	}
	if _, err := q.checkLevels(); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for i := 0; i < workers*perWorker; i++ {
		k, _, ok := q.DeleteMin()
		if !ok {
			t.Fatalf("queue empty after %d deletions", i)
		}
		if k != prev+1 {
			t.Fatalf("DeleteMin returned %d after %d", k, prev)
		}
		prev = k
	}
}

func TestConcurrentMixed(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		q := New[int64, int64](Config{Relaxed: relaxed, Seed: 17})
		const workers = 8
		const perWorker = 3000
		var wg sync.WaitGroup
		var deleted sync.Map
		var deleteCount, emptyCount [workers]int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 100))
				for i := 0; i < perWorker; i++ {
					if rng.Intn(2) == 0 {
						k := int64(w)*1_000_000 + int64(i) // unique keys per worker
						q.Insert(k, k)
					} else {
						if k, v, ok := q.DeleteMin(); ok {
							if k != v {
								t.Errorf("value mismatch: key=%d value=%d", k, v)
							}
							if _, dup := deleted.LoadOrStore(k, true); dup {
								t.Errorf("key %d deleted twice", k)
							}
							deleteCount[w]++
						} else {
							emptyCount[w]++
						}
					}
				}
			}(w)
		}
		wg.Wait()
		// Conservation: inserts == deletes + remaining.
		st := q.Stats()
		remaining := int64(len(q.CollectKeys(nil)))
		if int64(st.Inserts) != int64(st.DeleteMins)+remaining {
			t.Fatalf("relaxed=%v: conservation failed: %d inserts, %d deletes, %d remaining",
				relaxed, st.Inserts, st.DeleteMins, remaining)
		}
		if got := int64(q.Len()); got != remaining {
			t.Fatalf("relaxed=%v: Len %d, %d remaining", relaxed, got, remaining)
		}
		if _, err := q.checkLevels(); err != nil {
			t.Fatalf("relaxed=%v: %v", relaxed, err)
		}
	}
}

// TestConcurrentDuplicateKeys hammers the update/delete arbitration protocol:
// many goroutines insert the same small key set while others delete, and no
// inserted node may ever be lost without being either delivered or still
// present at the end: every Insert that reports Inserted adds one node, every
// successful DeleteMin removes one, and Updated adds none.
func TestConcurrentDuplicateKeys(t *testing.T) {
	q := newIntQueue(t, Config{Seed: 23})
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	var delivered [workers][]int64
	var inserted [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				if rng.Intn(2) == 0 {
					if q.Insert(int64(rng.Intn(8)), int64(w*perWorker+i)) == Inserted {
						inserted[w]++
					}
				} else {
					if k, v, ok := q.DeleteMin(); ok {
						if k < 0 || k > 7 {
							t.Errorf("unexpected key %d", k)
						}
						delivered[w] = append(delivered[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every delivered value must be unique: a value handed out twice would
	// mean an update raced a delete and both observed it.
	seen := map[int64]bool{}
	totalInserted := 0
	for w, d := range delivered {
		totalInserted += inserted[w]
		for _, v := range d {
			if seen[v] {
				t.Fatalf("value %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	// Conservation: a node lost to an update racing a delete would leave
	// inserted > delivered + Len.
	if totalInserted != len(seen)+q.Len() {
		t.Fatalf("conservation failed: %d inserted, %d delivered, Len %d",
			totalInserted, len(seen), q.Len())
	}
	count, err := q.checkLevels()
	if err != nil {
		t.Fatal(err)
	}
	if count != q.Len() {
		t.Fatalf("bottom level holds %d nodes, Len = %d", count, q.Len())
	}
}

// TestStrictOrderingUnderConcurrency checks the observable part of
// Definition 1 on quiescent cuts: after all inserts complete, every
// DeleteMin must return the global minimum of what remains.
func TestStrictOrderingUnderConcurrency(t *testing.T) {
	q := newIntQueue(t, Config{Seed: 31})
	const n = 5000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				q.Insert(int64(i), int64(i))
			}
		}(w)
	}
	wg.Wait()

	// Concurrent deleters: each local sequence must be increasing, and the
	// union must be exactly 0..n-1 (no loss, no duplication).
	results := make([][]int64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k, _, ok := q.DeleteMin()
				if !ok {
					return
				}
				results[w] = append(results[w], k)
			}
		}(w)
	}
	wg.Wait()

	all := map[int64]bool{}
	for w, res := range results {
		for i := 1; i < len(res); i++ {
			if res[i] <= res[i-1] {
				t.Fatalf("worker %d saw non-increasing keys %d then %d", w, res[i-1], res[i])
			}
		}
		for _, k := range res {
			if all[k] {
				t.Fatalf("key %d returned twice", k)
			}
			all[k] = true
		}
	}
	if len(all) != n {
		t.Fatalf("got %d distinct keys, want %d", len(all), n)
	}
}

// linkedOn reports whether n is reachable from the head on level i.
func linkedOn(q *Queue[int64, int64], n *node[int64, int64], i int) bool {
	for m := q.head.loadNext(i); m != q.tail; m = m.loadNext(i) {
		if m == n {
			return true
		}
	}
	return false
}

// TestRemovePastMarkedPredecessors leaves the queue's first nodes claimed but
// still linked, as removers that won the SWAP but have not unlinked yet
// would, so the DeleteMin that follows must find predecessors other than the
// head by walking past them. At least one marked node is taller than the
// victim, so that walk runs on more than the bottom level.
func TestRemovePastMarkedPredecessors(t *testing.T) {
	const n = 64
	q := New[int64, int64](Config{Seed: 5})
	for k := int64(0); k < n; k++ {
		q.Insert(k, k*10)
	}
	var nodes []*node[int64, int64]
	for m := q.head.loadNext(0); m != q.tail; m = m.loadNext(0) {
		nodes = append(nodes, m)
	}

	// k marked nodes, then the victim: the first victim of height two or
	// more with a taller node before it.
	k, tallest := -1, 0
	for i, m := range nodes {
		if m.level() >= 2 && tallest > m.level() {
			k = i
			break
		}
		tallest = max(tallest, m.level())
	}
	if k < 0 {
		t.Fatal("seed builds no node preceded by a taller one; pick another seed")
	}
	marked, victim := nodes[:k], nodes[k]
	st := &q.stats[0]
	for _, m := range marked {
		m.state.Store(-q.clock.Now()<<levelBits | int64(m.level()))
		st.deleteMins.Add(1) // the claim, not the unlink, takes an element out of Len
	}

	key, val, ok := q.DeleteMin()
	if !ok || key != victim.key || val != victim.key*10 {
		t.Fatalf("DeleteMin = (%d,%d,%v), want (%d,%d,true)", key, val, ok, victim.key, victim.key*10)
	}
	if _, err := q.checkLevels(); err != nil {
		t.Fatalf("after DeleteMin: %v", err)
	}
	for i := 0; i < q.MaxLevel(); i++ {
		if linkedOn(q, victim, i) {
			t.Fatalf("victim %d still linked on level %d", victim.key, i)
		}
	}
	for _, m := range marked {
		for i := 0; i < m.level(); i++ {
			if !linkedOn(q, m, i) {
				t.Fatalf("marked node %d unlinked from level %d by another node's removal", m.key, i)
			}
		}
	}

	for j := len(marked) - 1; j >= 0; j-- {
		q.remove(st, marked[j])
		if _, err := q.checkLevels(); err != nil {
			t.Fatalf("after removing %d: %v", marked[j].key, err)
		}
	}
	if cnt, err := q.checkLevels(); err != nil || cnt != q.Len() {
		t.Fatalf("node count %d (err %v), Len %d", cnt, err, q.Len())
	}
}

// TestHalfLinkedNodeNeverClaimed links a two-level node on level 0 only,
// its state still linking, as an Insert between its splices leaves it. No
// deleter may claim it: remove would then wait on level 1 for a node that
// is not there, so a wrong claim shows as a hang, caught here by a deadline.
// PeekMin must not report it either, or a peeking sampler (internal/sharded)
// keeps choosing a shard whose DeleteMin then takes a larger element. Once
// the insertion finishes the link and stamps the node, it comes back.
func TestHalfLinkedNodeNeverClaimed(t *testing.T) {
	deleteMin := func(q *Queue[int64, int64]) (int64, bool) {
		k, _, ok := q.DeleteMin()
		return k, ok
	}
	for _, tc := range []struct {
		name    string
		relaxed bool
		pop     func(q *Queue[int64, int64]) (int64, bool)
	}{
		{"strict", false, deleteMin},
		{"relaxed", true, deleteMin},
		{"spray", true, func(q *Queue[int64, int64]) (int64, bool) {
			k, _, _, ok, _ := q.DeleteSpray(2, 1, 1, 1)
			return k, ok
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int64, int64](Config{Relaxed: tc.relaxed, MaxLevel: 4})
			nn := newNode[int64, int64](7, 0, 70, 2)
			nn.storeNext(0, q.tail)
			q.head.storeNext(0, nn)

			type result struct {
				key int64
				ok  bool
			}
			pop := func(when string) result {
				done := make(chan result, 1)
				go func() {
					k, ok := tc.pop(q)
					done <- result{k, ok}
				}()
				select {
				case r := <-done:
					return r
				case <-time.After(time.Second):
					t.Fatalf("%s: pop still running after 1s (a claimed half-linked node stalls remove)", when)
					return result{}
				}
			}
			if k, _, ok := q.PeekMin(); ok {
				t.Fatalf("PeekMin = %d: reported a node no DeleteMin may claim yet", k)
			}
			if r := pop("half-linked"); r.ok {
				t.Fatalf("half-linked node %d claimed", r.key)
			}

			nn.storeNext(1, q.tail)
			q.head.storeNext(1, nn)
			nn.state.Store(q.clock.Now()<<levelBits | 2)
			q.stats[0].inserts.Add(1)
			if r := pop("stamped"); !r.ok || r.key != 7 {
				t.Fatalf("after stamping: pop = (%d, %v), want (7, true)", r.key, r.ok)
			}
			if cnt, err := q.checkLevels(); err != nil || cnt != 0 {
				t.Fatalf("after removal: %d nodes linked (err %v), want 0", cnt, err)
			}
		})
	}
}
