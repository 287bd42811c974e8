package sim

import (
	"runtime"
	"testing"
)

func TestSingleProcSequentialCosts(t *testing.T) {
	m := New(Config{Procs: 1, MemCost: 40, MemOccupancy: 12, LockCost: 40, LockOccupancy: 12, ClockCost: 10})
	w := m.NewWord(int64(0))
	var endTime int64
	m.Run(func(p *Proc) {
		p.Work(100)
		if p.Now() != 100 {
			t.Errorf("after Work(100): time %d", p.Now())
		}
		p.Write(w, int64(5))
		if p.Now() != 140 {
			t.Errorf("after Write: time %d", p.Now())
		}
		if v := p.Read(w).(int64); v != 5 {
			t.Errorf("Read = %d", v)
		}
		if p.Now() != 180 {
			t.Errorf("after Read: time %d", p.Now())
		}
		endTime = p.Now()
	})
	if endTime != 180 {
		t.Fatalf("final time %d", endTime)
	}
	if w.Accesses() != 2 {
		t.Fatalf("accesses = %d", w.Accesses())
	}
}

func TestSwapSemantics(t *testing.T) {
	m := New(Config{Procs: 1})
	w := m.NewWord("a")
	m.Run(func(p *Proc) {
		if old := p.Swap(w, "b"); old != "a" {
			t.Errorf("Swap returned %v", old)
		}
		if v := p.Read(w); v != "b" {
			t.Errorf("Read after Swap = %v", v)
		}
	})
}

func TestHotWordSerializes(t *testing.T) {
	// P processors all hit the same word at time 0: completion times must
	// spread out by the occupancy window, i.e. the last processor's latency
	// grows linearly with P.
	const procs = 16
	m := New(Config{Procs: procs, MemCost: 40, MemOccupancy: 12})
	w := m.NewWord(int64(0))
	finish := make([]int64, procs)
	m.Run(func(p *Proc) {
		p.Read(w)
		finish[p.ID] = p.Now()
	})
	min, max := finish[0], finish[0]
	for _, f := range finish {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if min != 40 {
		t.Fatalf("first access completed at %d, want 40", min)
	}
	wantMax := int64(40 + (procs-1)*12)
	if max != wantMax {
		t.Fatalf("last access completed at %d, want %d", max, wantMax)
	}
	if w.StalledCycles() == 0 {
		t.Fatal("no stall cycles recorded on a hot word")
	}
}

func TestColdWordsDoNotSerialize(t *testing.T) {
	const procs = 16
	m := New(Config{Procs: procs, MemCost: 40, MemOccupancy: 12})
	words := make([]*Word, procs)
	for i := range words {
		words[i] = m.NewWord(int64(i))
	}
	m.Run(func(p *Proc) {
		p.Read(words[p.ID])
		if p.Now() != 40 {
			t.Errorf("proc %d finished at %d, want 40", p.ID, p.Now())
		}
	})
}

func TestSequentialConsistencyOfSwaps(t *testing.T) {
	// Every processor swaps its ID into a word; the values observed form a
	// chain: each swap returns the previous writer's value, with no loss.
	const procs = 32
	m := New(Config{Procs: procs})
	w := m.NewWord(int64(-1))
	got := make([]int64, procs)
	m.Run(func(p *Proc) {
		p.Work(int64(p.Rand.Intn(200)))
		got[p.ID] = p.Swap(w, int64(p.ID)).(int64)
	})
	seen := map[int64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d returned by two swaps", v)
		}
		seen[v] = true
	}
	if !seen[-1] {
		t.Fatal("initial value never observed")
	}
}

func TestCompareAndSwap(t *testing.T) {
	m := New(Config{Procs: 1})
	type box struct{ v int }
	a, b := &box{1}, &box{2}
	w := m.NewWord(a)
	m.Run(func(p *Proc) {
		if p.CompareAndSwap(w, b, a) {
			t.Error("CAS with wrong expected value succeeded")
		}
		if !p.CompareAndSwap(w, a, b) {
			t.Error("CAS with correct expected value failed")
		}
		if got := p.Read(w).(*box); got != b {
			t.Errorf("value after CAS = %v", got)
		}
	})
}

func TestCASContention(t *testing.T) {
	// Many processors CAS the same word from the same expected value:
	// exactly one must win.
	const procs = 16
	m := New(Config{Procs: procs})
	w := m.NewWord("initial")
	wins := 0
	m.Run(func(p *Proc) {
		if p.CompareAndSwap(w, "initial", p.ID) {
			wins++
		}
	})
	if wins != 1 {
		t.Fatalf("CAS wins = %d, want 1", wins)
	}
}

func TestLockMutualExclusionAndFIFO(t *testing.T) {
	const procs = 8
	m := New(Config{Procs: procs, LockCost: 40, LockOccupancy: 12})
	l := m.NewLock()
	inside := 0
	maxInside := 0
	var order []int
	m.Run(func(p *Proc) {
		p.Work(int64(p.ID)) // stagger arrival deterministically
		p.Lock(l)
		inside++
		if inside > maxInside {
			maxInside = inside
		}
		order = append(order, p.ID)
		p.Work(100) // critical section
		inside--
		p.Unlock(l)
	})
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d inside", maxInside)
	}
	if len(order) != procs {
		t.Fatalf("only %d acquisitions", len(order))
	}
	// Arrival was staggered by ID, so FIFO admission means order by ID.
	for i, id := range order {
		if id != i {
			t.Fatalf("acquisition order %v not FIFO", order)
		}
	}
	if l.Acquires() != procs {
		t.Fatalf("Acquires = %d", l.Acquires())
	}
	if l.WaitedCycles() == 0 {
		t.Fatal("no lock wait recorded despite contention")
	}
}

func TestLockWaitGrowsWithContention(t *testing.T) {
	latency := func(procs int) int64 {
		m := New(Config{Procs: procs})
		l := m.NewLock()
		var last int64
		m.Run(func(p *Proc) {
			p.Lock(l)
			p.Work(50)
			p.Unlock(l)
			if p.Now() > last {
				last = p.Now()
			}
		})
		return last
	}
	l4, l64 := latency(4), latency(64)
	if l64 <= l4*8 {
		t.Fatalf("serialized lock latency should grow ~linearly: 4 procs=%d, 64 procs=%d", l4, l64)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		m := New(Config{Procs: 16, Seed: 7})
		w := m.NewWord(int64(0))
		l := m.NewLock()
		out := make([]int64, 16)
		m.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Work(int64(p.Rand.Intn(100)))
				if p.Rand.Bool(0.5) {
					p.Lock(l)
					v := p.Read(w).(int64)
					p.Write(w, v+1)
					p.Unlock(l)
				} else {
					p.Swap(w, int64(p.ID))
				}
			}
			out[p.ID] = p.Now()
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: proc %d finished at %d then %d", i, a[i], b[i])
		}
	}
}

func TestReadClockMonotoneAcrossProcs(t *testing.T) {
	m := New(Config{Procs: 8})
	var stamps []int64
	m.Run(func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Work(int64(p.Rand.Intn(50)))
			stamps = append(stamps, p.ReadClock()) // safe: one proc runs at a time
		}
	})
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("clock went backwards in schedule order: %d after %d", stamps[i], stamps[i-1])
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked program did not panic")
		}
	}()
	m := New(Config{Procs: 2})
	a, b := m.NewLock(), m.NewLock()
	m.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Lock(a)
			p.Work(100)
			p.Lock(b)
		} else {
			p.Lock(b)
			p.Work(100)
			p.Lock(a)
		}
	})
}

func TestUnlockNotHeldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Unlock did not panic")
		}
	}()
	m := New(Config{Procs: 1})
	l := m.NewLock()
	m.Run(func(p *Proc) {
		p.Unlock(l)
	})
}

func TestNegativeWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	m := New(Config{Procs: 1})
	m.Run(func(p *Proc) {
		p.Work(-1)
	})
}

// TestRunLeavesNoGoroutines checks that a Run that panics, whether from a
// deadlock or from a processor body, leaves none of its unfinished
// processors parked behind it.
func TestRunLeavesNoGoroutines(t *testing.T) {
	mustPanic := func(body func(p *Proc)) {
		defer func() {
			if recover() == nil {
				t.Fatal("Run did not panic")
			}
		}()
		m := New(Config{Procs: 4})
		m.Run(body)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		l := &Lock{}
		mustPanic(func(p *Proc) { p.Lock(l) }) // the holder exits, the rest deadlock
		mustPanic(func(p *Proc) {
			p.Work(int64(10 * p.ID))
			if p.ID == 1 {
				panic("boom")
			}
			p.Work(1000)
		})
	}
	// Run returns only after stopping every body, so there is nothing to
	// wait for.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 100 panicking runs, %d after", before, after)
	}
}

func TestDefaultsNormalization(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.Procs != 1 || cfg.MemCost != 40 || cfg.LockCost != 40 || cfg.ClockCost != 10 {
		t.Fatalf("normalized config = %+v", cfg)
	}
	d := Defaults(256)
	if d.Procs != 256 || d.MemCost == 0 {
		t.Fatalf("Defaults = %+v", d)
	}
}
