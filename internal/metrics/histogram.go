// Package metrics provides the measurement substrate for the KVACCEL
// experiments: log-bucketed latency histograms with percentile queries,
// per-second time series samplers, and empirical CDFs — the same shapes
// db_bench and Intel PCM report in the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Histogram is a log-bucketed latency histogram in the style of RocksDB's
// HistogramImpl: fixed sub-linear buckets giving ~4% relative error across
// nanoseconds to minutes.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// bucketLimits[i] is the inclusive upper bound (ns) of bucket i. Buckets
// grow by ~1.5x per step, covering 1ns .. ~100h.
var bucketLimits = func() []int64 {
	var limits []int64
	v := int64(1)
	for v < int64(200*time.Hour) {
		limits = append(limits, v)
		next := v + v/2
		if next <= v {
			next = v + 1
		}
		v = next
	}
	limits = append(limits, math.MaxInt64)
	return limits
}()

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(bucketLimits)), min: math.MaxInt64, max: math.MinInt64}
}

func bucketFor(v int64) int {
	lo, hi := 0, len(bucketLimits)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if bucketLimits[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := bucketFor(v)
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	return h.total
}

// Mean returns the mean observed duration, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Min returns the smallest observation, or 0 with none.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the q-quantile (0 <= q <= 1) with linear interpolation
// inside the containing bucket, clamped to the observed min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketLimits[i-1]
			}
			hi := bucketLimits[i]
			if hi == math.MaxInt64 {
				hi = h.max
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			v := float64(lo) + frac*float64(hi-lo)
			if int64(v) < h.min {
				v = float64(h.min)
			}
			if int64(v) > h.max {
				v = float64(h.max)
			}
			return time.Duration(v)
		}
		cum = next
	}
	return time.Duration(h.max)
}

// P50, P99 and P999 are the quantiles the paper reports.
func (h *Histogram) P50() time.Duration  { return h.Quantile(0.50) }
func (h *Histogram) P99() time.Duration  { return h.Quantile(0.99) }
func (h *Histogram) P999() time.Duration { return h.Quantile(0.999) }

// Merge folds o's observations into h. Both histograms share the fixed
// global bucket layout, so counts add exactly; mean and quantiles of the
// merged histogram equal those of observing both streams directly.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	counts := append([]uint64(nil), o.counts...)
	total, sum, lo, hi := o.total, o.sum, o.min, o.max
	if total == 0 {
		return
	}
	for i, c := range counts {
		h.counts[i] += c
	}
	h.total += total
	h.sum += sum
	if lo < h.min {
		h.min = lo
	}
	if hi > h.max {
		h.max = hi
	}
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// String formats the summary row db_bench prints.
func (h *Histogram) String() string {
	return fmt.Sprintf("count=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.Count(), h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}
