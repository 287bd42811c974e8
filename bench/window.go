package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// clock measures nanoseconds since a base instant shared by all workers.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// counters is what one load-generating goroutine has done so far.
type counters struct {
	ops, ins, del int64 // completed OK: all, insert-type, remove-type
	failed        int64 // errors, refusals, empties
	nlat          int64 // latency samples stored
}

// sliceRec cuts a worker's measured window into equal slices. The worker
// calls tick with the current time; at each boundary it crosses, its
// counters are noted against the nominal boundary time, so a rate per slice
// is a difference of two marks over the slice length. The first boundary is
// the end of the warm-up: everything before it is discarded.
type sliceRec struct {
	next, step, end int64
	marks           []counters // one per slice boundary
}

func newSliceRec(start, length time.Duration, slices int) *sliceRec {
	step := int64(length) / int64(slices)
	return &sliceRec{
		next:  int64(start),
		step:  step,
		end:   int64(start) + step*int64(slices),
		marks: make([]counters, 0, slices+1),
	}
}

// tick returns false once the window is over.
func (r *sliceRec) tick(now int64, c counters) bool {
	for now >= r.next && r.next <= r.end {
		r.marks = append(r.marks, c)
		r.next += r.step
	}
	return r.next <= r.end
}

// windowTotals sums the workers' completed and failed operations over the
// window; ok is false when a worker did not see the whole window.
func windowTotals(recs []*sliceRec) (ops, failed int64, ok bool) {
	for _, r := range recs {
		if len(r.marks) != cap(r.marks) {
			return 0, 0, false
		}
		a, b := r.marks[0], r.marks[len(r.marks)-1]
		ops, failed = ops+b.ops-a.ops, failed+b.failed-a.failed
	}
	return ops, failed, true
}

// sliceCounts returns, for each slice, the counter f picks, summed over
// workers.
func sliceCounts(recs []*sliceRec, f func(counters) int64) []float64 {
	n := len(recs[0].marks) - 1
	counts := make([]float64, n)
	for _, r := range recs {
		for i := 0; i < n; i++ {
			counts[i] += float64(f(r.marks[i+1]) - f(r.marks[i]))
		}
	}
	return counts
}

// medianRate is the median over slices of a count per second.
func medianRate(counts []float64, step time.Duration) float64 {
	return median(counts) / step.Seconds()
}

// sliceSamples returns, for each slice, the workers' latency samples of
// that slice, pooled and sorted. stores[g] belongs to recs[g].
func sliceSamples(recs []*sliceRec, stores []*samples) [][]int64 {
	n := len(recs[0].marks) - 1
	out := make([][]int64, n)
	for i := range out {
		parts := make([][]int64, len(recs))
		for g, r := range recs {
			parts[g] = stores[g].v[r.marks[i].nlat:r.marks[i+1].nlat]
		}
		out[i] = pool(parts...)
	}
	return out
}

// watchCPU reads a process's CPU time at every boundary of the window's
// slices, sleeping in between, and returns slices+1 readings.
func watchCPU(base time.Time, start, step time.Duration, slices int, read func() (time.Duration, error)) ([]time.Duration, error) {
	out := make([]time.Duration, 0, slices+1)
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(base.Add(start + time.Duration(i)*step)))
		c, err := read()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// setRates reports the throughput metrics and the CPU time per operation
// of a closed-loop window, each as a median over the window's slices.
func (m *measured) setRates(recs []*sliceRec, cpu []time.Duration, o runOpts) {
	ops := sliceCounts(recs, func(c counters) int64 { return c.ops })
	m.set("ops_per_s", medianRate(ops, o.step()), len(ops))
	m.set("insert_ops_per_s", medianRate(sliceCounts(recs, func(c counters) int64 { return c.ins }), o.step()), len(ops))
	m.set("deletemin_ops_per_s", medianRate(sliceCounts(recs, func(c counters) int64 { return c.del }), o.step()), len(ops))
	m.set("cpu_us_per_op", cpuPerOp(cpu, ops), len(ops))
}

// cpuPerOp is the median over slices of CPU microseconds per operation.
// A slice is cut on the worker's clock for the count and on the
// coordinator's for the CPU time; the two differ by well under a
// millisecond of a slice of hundreds.
func cpuPerOp(cpu []time.Duration, ops []float64) float64 {
	var per []float64
	for i, n := range ops {
		if n > 0 {
			per = append(per, float64((cpu[i+1]-cpu[i]).Nanoseconds())/1e3/n)
		}
	}
	return median(per)
}

// idset checks that every value is delivered at most once and was
// inserted: each value carries a unique id made of its generator and a
// per-generator serial, and delivery sets one bit.
type idset struct {
	gens     [][]atomic.Uint64
	dups     atomic.Int64
	phantoms atomic.Int64
}

const idGenShift = 40

func makeID(gen int, serial int64) uint64 { return uint64(gen)<<idGenShift | uint64(serial) }

func newIDSet(gens int, perGen int64) *idset {
	s := &idset{gens: make([][]atomic.Uint64, gens)}
	for i := range s.gens {
		s.gens[i] = make([]atomic.Uint64, (perGen+63)/64)
	}
	return s
}

// putID writes id into the first 8 bytes of a value.
func putID(v []byte, id uint64) { binary.LittleEndian.PutUint64(v, id) }

// deliver records that the value v came out of the queue.
func (s *idset) deliver(v []byte) {
	if len(v) < 8 {
		s.phantoms.Add(1)
		return
	}
	id := binary.LittleEndian.Uint64(v)
	gen, serial := id>>idGenShift, id&(1<<idGenShift-1)
	if gen >= uint64(len(s.gens)) || serial/64 >= uint64(len(s.gens[gen])) {
		s.phantoms.Add(1)
		return
	}
	w, bit := &s.gens[gen][serial/64], uint64(1)<<(serial%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			s.dups.Add(1)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// check compares deliveries with what each generator inserted. With
// drained set, every inserted id must have been delivered; without it the
// still-queued ones are allowed to be missing. It returns one line per
// violated invariant.
func (s *idset) check(inserted []int64, drained bool) []string {
	var bad []string
	if n := s.dups.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d values delivered twice", n))
	}
	if n := s.phantoms.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d delivered values carry an id that was never issued", n))
	}
	for g, words := range s.gens {
		var got, beyond int64
		for i := range words {
			w := words[i].Load()
			got += int64(bits.OnesCount64(w))
			if lo := int64(i) * 64; lo+64 > inserted[g] {
				// Bits at or above the number inserted were never issued.
				keep := max(inserted[g]-lo, 0)
				beyond += int64(bits.OnesCount64(w >> uint(keep)))
			}
		}
		if beyond != 0 {
			bad = append(bad, fmt.Sprintf("generator %d: %d delivered ids were never inserted", g, beyond))
		}
		if drained && got-beyond != inserted[g] {
			bad = append(bad, fmt.Sprintf("generator %d: inserted %d, delivered %d after drain", g, inserted[g], got-beyond))
		}
	}
	return bad
}

// spanRec keeps one goroutine's spans in memory, from the end of the
// warm-up and up to a fixed capacity; outside that calls are still timed
// but not kept, so the cost of tracing stays even over the window.
type spanRec struct {
	spans []span
	from  int64
}

const spanCap = 1 << 16

func newSpanRec(from time.Duration) *spanRec {
	return &spanRec{spans: make([]span, 0, spanCap), from: int64(from)}
}

// open starts a span and returns its index, or -1 when it is not kept.
func (r *spanRec) open(name, layer string, parent int32, op uint64, start int64) int32 {
	if r == nil || start < r.from || len(r.spans) == cap(r.spans) {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: start, Parent: parent, Op: op})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) close(i int32, end int64) {
	if i >= 0 {
		r.spans[i].End = end
	}
}

// genSelfShare is the share of the root spans' time that no child span
// covers: time the generator itself spent between its calls into a layer.
func genSelfShare(recs []*spanRec) float64 {
	var self, total int64
	for _, r := range recs {
		if r == nil {
			continue
		}
		st := selfTimes(r.spans)
		for i, s := range r.spans {
			if s.Parent < 0 && s.End > s.Start {
				self += st[i]
				total += s.End - s.Start
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}
