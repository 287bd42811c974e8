package main

import (
	"cmp"
	"math"
	"slices"
)

// samples is a pre-allocated store of durations in nanoseconds. One
// goroutine appends; nothing reallocates inside a timed loop. Once the
// store is full further samples are counted in dropped and not kept, so a
// mis-sized store shows up in the report instead of silently growing.
type samples struct {
	v       []int64
	dropped int
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]int64, 0, capacity)}
}

func (s *samples) add(d int64) {
	if len(s.v) == cap(s.v) {
		s.dropped++
		return
	}
	s.v = append(s.v, d)
}

// pool concatenates the given sample ranges into one sorted slice.
func pool(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the exact nearest-rank q-quantile of sorted (ascending)
// samples, and the quantile actually used. A percentile is reported only
// when at least minBeyond samples lie beyond it; when q is too high for
// the sample count the highest supported rank is used instead, and never
// less than the median, which is always reported. An empty slice gives 0.
func quantile(sorted []int64, q float64) (value int64, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := func(q float64) int {
		// The small term keeps q*n from landing a hair above a whole
		// number (0.07*100) and being rounded up a rank.
		return max(int(math.Ceil(q*float64(n)-1e-9))-1, 0)
	}
	i := rank(q)
	if hi := max(n-1-minBeyond, rank(0.5)); i > hi {
		return sorted[hi], float64(hi+1) / float64(n)
	}
	return sorted[i], q
}

// median of a small unsorted slice of floats (slice rates, set-up times).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// span is one timed call the bench made into a layer. Parent is the index
// of the enclosing span in the same slice, or -1. Spans of one operation
// share Op.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op_id"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// and may stick out of the parent; overlap is counted once and the excess
// is clipped.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		c := kids[int32(i)]
		if len(c) == 0 {
			continue
		}
		slices.SortFunc(c, func(a, b int32) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		covered, hi := int64(0), s.Start
		for _, k := range c {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}
