package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProbesAreNoOps(t *testing.T) {
	var s *Set
	if s.Enabled() {
		t.Fatal("nil Set reports Enabled")
	}
	c := s.Counter("x")
	if c != nil {
		t.Fatal("nil Set handed out a non-nil counter")
	}
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d", got)
	}
	if c.Name() != "" {
		t.Fatal("nil counter has a name")
	}
	h := s.Durations("y")
	if h != nil {
		t.Fatal("nil Set handed out a non-nil hist")
	}
	h.Observe(time.Second)
	h.ObserveN(7)
	h.Since(time.Now())
	snap := s.Snapshot()
	if snap.Enabled {
		t.Fatal("nil Set snapshot is enabled")
	}
	if !strings.Contains(snap.Table(), "metrics disabled") {
		t.Fatalf("disabled table missing notice: %q", snap.Table())
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	s := NewSet("test")
	c := s.Counter("hits")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestSetRegistrationIsIdempotent(t *testing.T) {
	s := NewSet("test")
	a := s.Counter("same")
	b := s.Counter("same")
	if a != b {
		t.Fatal("re-registering a counter name returned a distinct counter")
	}
	h1 := s.Durations("lat")
	h2 := s.Durations("lat")
	if h1 != h2 {
		t.Fatal("re-registering a hist name returned a distinct hist")
	}
}

func TestSnapshotReadsProbes(t *testing.T) {
	s := NewSet("unit")
	s.Counter("retries").Add(3)
	s.Durations("lat").Observe(2 * time.Microsecond)
	s.Values("depth").ObserveN(4)

	snap := s.Snapshot()
	if !snap.Enabled || snap.Name != "unit" {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if got := snap.Counter("retries"); got != 3 {
		t.Fatalf("retries = %d", got)
	}
	if got := snap.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
	lat, ok := snap.Hist("lat")
	if !ok || lat.Count != 1 || lat.Unit != UnitDuration {
		t.Fatalf("lat hist wrong: %+v ok=%v", lat, ok)
	}
	depth, ok := snap.Hist("depth")
	if !ok || depth.Unit != UnitCount || depth.Max != 4 {
		t.Fatalf("depth hist wrong: %+v ok=%v", depth, ok)
	}
	table := snap.Table()
	for _, want := range []string{"== unit ==", "retries", "lat:", "depth:"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSet("a")
	a.Counter("x").Add(1)
	a.Durations("lat").Observe(time.Millisecond)
	b := NewSet("b")
	b.Counter("x").Add(2)
	b.Counter("y").Add(5)

	m := a.Snapshot().Merge(b.Snapshot())
	if got := m.Counter("x"); got != 3 {
		t.Fatalf("merged x = %d", got)
	}
	if got := m.Counter("y"); got != 5 {
		t.Fatalf("merged y = %d", got)
	}
	if _, ok := m.Hist("lat"); !ok {
		t.Fatal("merged snapshot lost the histogram")
	}
}

func TestDoRunsUnderLabel(t *testing.T) {
	ran := false
	Do("insert", func() { ran = true })
	if !ran {
		t.Fatal("Do did not invoke fn")
	}
}

// TestDisabledOverhead is a sanity bound, not a benchmark: a nil counter Add
// must not allocate.
func TestDisabledOverhead(t *testing.T) {
	var c *Counter
	allocs := testing.AllocsPerRun(100, func() { c.Add(1) })
	if allocs != 0 {
		t.Fatalf("nil Counter.Add allocates %v per run", allocs)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	s := NewSet("bench")
	c := s.Counter("hits")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() == 0 {
		b.Fatal("no adds recorded")
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
