// Package hist provides a small fixed-memory latency histogram with
// logarithmic buckets. It is the repository's one histogram type: obs.Hist
// is a nil-safe wrapper over H, flight's span attribution aggregates into
// it, and cmd/pqload prints its summaries (testing.B reports only means).
package hist

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// bucketsPerOctave subdivides each power-of-two range, bounding relative
// quantile error to about 1/bucketsPerOctave.
const bucketsPerOctave = 8

// maxOctaves covers values up to 2^48 nanoseconds (~3 days); larger samples
// clamp into the last bucket.
const maxOctaves = 48

const numBuckets = maxOctaves * bucketsPerOctave

// H is a concurrent latency histogram. The zero value is ready to use; all
// methods are safe for concurrent use.
type H struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// bucketOf maps a non-negative sample to its bucket index.
func bucketOf(v uint64) int {
	if v < 2 {
		return int(v)
	}
	octave := bits.Len64(v) - 1 // floor(log2 v)
	frac := (v - 1<<octave) * bucketsPerOctave >> octave
	idx := octave*bucketsPerOctave + int(frac)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx (the reported
// quantile value).
func bucketLow(idx int) uint64 {
	octave := idx / bucketsPerOctave
	frac := uint64(idx % bucketsPerOctave)
	if octave == 0 {
		return frac
	}
	base := uint64(1) << octave
	return base + frac*(base/bucketsPerOctave)
}

// Observe records one sample.
func (h *H) Observe(d time.Duration) {
	v := uint64(max64(0, int64(d)))
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Count returns the number of samples.
func (h *H) Count() uint64 { return h.count.Load() }

// Mean returns the mean sample.
func (h *H) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest sample (rounded into its bucket on Quantile; exact
// here).
func (h *H) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the approximate q-quantile (0 <= q <= 1). Accuracy is
// about 12% relative (one part in bucketsPerOctave).
func (h *H) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > target {
			return time.Duration(bucketLow(i))
		}
	}
	return h.Max()
}

// Merge adds other's samples into h. (Max merges exactly; buckets add.)
func (h *H) Merge(other *H) {
	for i := 0; i < numBuckets; i++ {
		if v := other.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		om, m := other.max.Load(), h.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			break
		}
	}
}

// Summary formats count, mean and the standard percentile set on one line.
func (h *H) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.Count(), h.Mean(),
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999),
		h.Max())
	return b.String()
}

// Octave is one power-of-two band of samples: Count samples fell in
// [Lo, 2*Lo) (or [0, 2) for the first band).
type Octave struct {
	Lo    uint64
	Count uint64
}

// Octaves coalesces the fine-grained buckets into power-of-two bands and
// returns the non-empty ones in ascending order. It is the shape consumed by
// the ASCII distribution bars of internal/obs: octave resolution is coarse
// enough to fit a terminal and fine enough to show a contention tail.
func (h *H) Octaves() []Octave {
	var out []Octave
	for o := 0; o < maxOctaves; o++ {
		var c uint64
		for b := 0; b < bucketsPerOctave; b++ {
			c += h.buckets[o*bucketsPerOctave+b].Load()
		}
		if c == 0 {
			continue
		}
		lo := uint64(0)
		if o > 0 {
			lo = 1 << o
		}
		out = append(out, Octave{Lo: lo, Count: c})
	}
	return out
}
