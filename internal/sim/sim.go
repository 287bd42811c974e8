//go:build go1.23

// Package sim is a deterministic discrete-event multiprocessor simulator:
// the repository's stand-in for the Proteus simulation of a 256-node
// ccNUMA machine (MIT Alewife) on which the paper's evaluation ran.
//
// The model, and why it suffices for the paper's claims:
//
//   - P virtual processors each run a Go function against a small set of
//     primitives: local Work, shared-word Read/Write/Swap, FIFO Lock/Unlock
//     and a shared-clock read. These are exactly the primitives of the
//     paper's computation model (Section 4.1) plus the lock abstraction its
//     implementation uses.
//   - Shared memory is sequentially consistent. Only one processor executes
//     at a time — the scheduler always runs the processor with the minimum
//     local clock — so every access is atomic and the whole run is
//     deterministic given a seed.
//   - Contention is modeled per word: each word has an occupancy window, and
//     an access issued while the word is busy stalls until the word frees
//     up. Hot spots (a heap's root, a list's head, a global counter)
//     therefore serialize and their latency grows with the number of
//     processors hammering them — the effect that separates the three
//     structures in the paper's figures. Locks queue FIFO, modelling the
//     Proteus semaphores the paper used.
//   - Each processor body runs as an iter.Pull coroutine. A step resumes
//     the body through next and every primitive returns the token through
//     the coroutine's yield, so the schedule is the heap's order alone.
//
// Absolute cycle counts are not Proteus's; the latency *shapes* across the
// 1..256 processor sweep are what the harness reproduces.
package sim

import (
	"container/heap"
	"fmt"
	"iter"

	"skipqueue/internal/xrand"
)

// Config sets the machine's size and cost model. Costs are in cycles.
type Config struct {
	// Procs is the number of virtual processors.
	Procs int
	// MemCost is the completion latency of a shared-memory access
	// (a remote access on the simulated ccNUMA machine).
	MemCost int64
	// MemOccupancy is how long one access keeps the word busy for others:
	// the serialization window that creates hot-spot queueing.
	MemOccupancy int64
	// LockCost is the latency of a lock acquire or release.
	LockCost int64
	// LockOccupancy is the serialization window of the lock word itself.
	LockOccupancy int64
	// ClockCost is the latency of reading the shared clock. Clock reads do
	// not occupy (the hardware clock is replicated/cacheable).
	ClockCost int64
	// Seed drives every processor's private generator.
	Seed uint64
}

// Defaults returns the cost model used by the benchmark harness: remote
// accesses around 40 cycles, fully serialized at the target word (occupancy
// equal to the access cost), in the ballpark of the Alewife remote-access
// latencies Proteus modeled.
func Defaults(procs int) Config {
	return Config{
		Procs:         procs,
		MemCost:       40,
		MemOccupancy:  40,
		LockCost:      40,
		LockOccupancy: 40,
		ClockCost:     10,
		Seed:          1,
	}
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.MemCost <= 0 {
		c.MemCost = 40
	}
	if c.MemOccupancy <= 0 {
		c.MemOccupancy = 12
	}
	if c.LockCost <= 0 {
		c.LockCost = 40
	}
	if c.LockOccupancy <= 0 {
		c.LockOccupancy = 12
	}
	if c.ClockCost <= 0 {
		c.ClockCost = 10
	}
	return c
}

// Word is one simulated shared-memory location. Create with Machine.NewWord.
// Words must only be touched through Proc methods.
type Word struct {
	val       any
	busyUntil int64
	accesses  uint64
	stalled   int64 // total cycles accesses spent waiting on this word
}

// Accesses returns how many times the word was accessed (for hot-spot
// analyses after a run).
func (w *Word) Accesses() uint64 { return w.accesses }

// SetInitial sets the word's value directly, charging nothing. It exists so
// data structures can be pre-populated before a run (the paper's benchmarks
// measure steady state on an already-filled queue). It must not be called
// while the machine is running.
func (w *Word) SetInitial(v any) { w.val = v }

// Peek reads the word's value directly, charging nothing. For verification
// on quiescent machines only.
func (w *Word) Peek() any { return w.val }

// StalledCycles returns the total cycles accesses spent queued on this word.
func (w *Word) StalledCycles() int64 { return w.stalled }

// Lock is a simulated FIFO queue lock. Create with Machine.NewLock.
type Lock struct {
	holder    *Proc
	waiters   []*Proc
	busyUntil int64
	acquires  uint64
	waited    int64 // total cycles procs spent blocked on this lock
}

// Acquires returns the number of times the lock was taken.
func (l *Lock) Acquires() uint64 { return l.acquires }

// WaitedCycles returns the total cycles processors spent blocked on the lock.
func (l *Lock) WaitedCycles() int64 { return l.waited }

type procState int8

const (
	stateReady procState = iota
	stateBlocked
)

// Proc is a virtual processor. The function passed to Machine.Run receives
// one Proc per processor and must perform all shared interaction through it.
type Proc struct {
	// ID is the processor number, 0-based.
	ID int
	// Rand is the processor's private deterministic generator.
	Rand *xrand.Rand

	m         *Machine
	time      int64
	state     procState
	blockedAt int64
	next      func() (struct{}, bool) // runs the body up to its next step
	suspend   func(struct{}) bool     // the body coroutine's yield
	wake      []*Proc                 // procs unblocked by this proc's last step
}

// stopped is the panic that unwinds a body whose Run has ended early.
type stopped struct{}

// Machine is the simulated multiprocessor. Create with New, then call Run.
type Machine struct {
	cfg   Config
	procs []*Proc
	ready procHeap
	now   int64 // time of the most recently scheduled step

	totals Totals
}

// Totals aggregates contention across every word and lock of the machine.
// They quantify the paper's qualitative argument: the SkipQueue's locking is
// distributed (many acquisitions, little waiting per lock) while the heap
// concentrates acquisitions and waiting on the size lock and root.
type Totals struct {
	WordAccesses uint64 // shared-memory accesses issued
	WordStalls   int64  // cycles accesses spent queued behind busy words
	LockAcquires uint64 // lock acquisitions (free or by handoff)
	LockWaits    int64  // cycles processors spent blocked on held locks
}

// Totals returns the machine-wide contention counters.
func (m *Machine) Totals() Totals { return m.totals }

// New builds a machine. The cost model is normalized with withDefaults, so a
// zero Config gives the default model with one processor.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	seeds := xrand.NewSplitMix64(cfg.Seed)
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{ID: i, Rand: xrand.NewRand(seeds.Next()), m: m}
	}
	return m
}

// Config returns the machine's normalized configuration.
func (m *Machine) Config() Config { return m.cfg }

// Procs returns the number of processors.
func (m *Machine) Procs() int { return len(m.procs) }

// NewWord allocates a shared word with an initial value.
func (m *Machine) NewWord(v any) *Word { return &Word{val: v} }

// NewLock allocates a FIFO lock.
func (m *Machine) NewLock() *Lock { return &Lock{} }

// Now returns the machine time of the most recently scheduled step. Valid
// during and after Run.
func (m *Machine) Now() int64 { return m.now }

// Run executes body on every processor from time zero and returns when all
// processors have finished. It panics if the simulated program deadlocks
// (every unfinished processor blocked on a lock), and re-raises a panic from
// a processor body. Either way the unfinished bodies are unwound first.
//
// Run is not reentrant; a Machine runs once.
func (m *Machine) Run(body func(p *Proc)) {
	for _, p := range m.procs {
		var stop func()
		p.next, stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() { // a stopped body ends quietly; next re-raises the rest
				if r := recover(); r != nil && r != (stopped{}) {
					panic(r)
				}
			}()
			p.suspend = yield
			body(p)
		})
		defer stop()
	}
	m.ready = append(m.ready[:0], m.procs...)
	heap.Init(&m.ready)
	running := len(m.procs)
	for running > 0 {
		if len(m.ready) == 0 {
			blocked := 0
			for _, p := range m.procs {
				if p.state == stateBlocked {
					blocked++
				}
			}
			panic(fmt.Sprintf("sim: deadlock: %d processors blocked on locks, none runnable", blocked))
		}
		p := heap.Pop(&m.ready).(*Proc)
		m.now = p.time
		_, more := p.next()
		for _, w := range p.wake {
			heap.Push(&m.ready, w)
		}
		p.wake = p.wake[:0]
		switch {
		case !more:
			running--
		case p.state == stateReady:
			heap.Push(&m.ready, p)
		case p.state == stateBlocked:
			// Parked on a lock's waiter queue; its unlocker will wake it.
		}
	}
}

// yield hands the token back to the scheduler and returns when this
// processor is scheduled again. If Run has ended early it unwinds the body
// instead.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(stopped{})
	}
}

// Now returns the processor's local clock, which equals global machine time
// whenever the processor is running.
func (p *Proc) Now() int64 { return p.time }

// Work advances the processor's clock by the given number of local cycles
// (computation that touches no shared state).
func (p *Proc) Work(cycles int64) {
	if cycles < 0 {
		panic("sim: negative work")
	}
	p.time += cycles
	p.yield()
}

// access charges a shared access against w and returns nothing; callers
// read/write w.val around it while still holding the execution token.
func (p *Proc) access(w *Word) {
	start := p.time
	if w.busyUntil > start {
		w.stalled += w.busyUntil - start
		p.m.totals.WordStalls += w.busyUntil - start
		start = w.busyUntil
	}
	w.busyUntil = start + p.m.cfg.MemOccupancy
	w.accesses++
	p.m.totals.WordAccesses++
	p.time = start + p.m.cfg.MemCost
}

// Read returns the value of w, charging one shared access.
func (p *Proc) Read(w *Word) any {
	p.access(w)
	v := w.val
	p.yield()
	return v
}

// Write stores v into w, charging one shared access.
func (p *Proc) Write(w *Word, v any) {
	p.access(w)
	w.val = v
	p.yield()
}

// Swap atomically stores v into w and returns the previous value, charging
// one shared access (the paper's register-to-memory SWAP).
func (p *Proc) Swap(w *Word, v any) any {
	p.access(w)
	old := w.val
	w.val = v
	p.yield()
	return old
}

// CompareAndSwap atomically replaces w's value with new if it currently
// equals old (interface equality: pointer identity for pointer values),
// charging one shared access. It reports whether the swap happened.
func (p *Proc) CompareAndSwap(w *Word, old, new any) bool {
	p.access(w)
	ok := w.val == old
	if ok {
		w.val = new
	}
	p.yield()
	return ok
}

// ReadClock reads the machine's shared clock: it returns the processor's
// completion time of the read. Clock reads are charged but do not serialize.
func (p *Proc) ReadClock() int64 {
	p.time += p.m.cfg.ClockCost
	t := p.time
	p.yield()
	return t
}

// Lock acquires l, blocking (in simulated time) while it is held. Waiters
// acquire in FIFO order, like the Proteus semaphores used by the paper.
func (p *Proc) Lock(l *Lock) {
	start := p.time
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + p.m.cfg.LockOccupancy
	p.time = start + p.m.cfg.LockCost
	if l.holder == nil {
		l.holder = p
		l.acquires++
		p.m.totals.LockAcquires++
		p.yield()
		return
	}
	l.waiters = append(l.waiters, p)
	p.state = stateBlocked
	p.blockedAt = p.time
	p.yield()
	// Resumed by the unlocker with our clock advanced to the handoff time;
	// we now hold the lock.
}

// Unlock releases l. If processors are waiting, ownership is handed to the
// first waiter and its clock jumps to the handoff time.
func (p *Proc) Unlock(l *Lock) {
	if l.holder != p {
		panic("sim: Unlock of a lock not held by this processor")
	}
	start := p.time
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + p.m.cfg.LockOccupancy
	p.time = start + p.m.cfg.LockCost
	if len(l.waiters) == 0 {
		l.holder = nil
		p.yield()
		return
	}
	w := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.holder = w
	l.acquires++
	p.m.totals.LockAcquires++
	if p.time > w.time {
		l.waited += p.time - w.blockedAt
		p.m.totals.LockWaits += p.time - w.blockedAt
		w.time = p.time
	}
	w.time += p.m.cfg.LockCost // the waiter's acquire completes after handoff
	w.state = stateReady
	p.wake = append(p.wake, w)
	p.yield()
}

// procHeap orders ready processors by (time, ID): the deterministic
// min-clock-first schedule.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].ID < h[j].ID
}
func (h procHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x any)   { *h = append(*h, x.(*Proc)) }
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
