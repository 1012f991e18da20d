package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of finite buckets: upper bounds 1, 2, 4, …,
// 2^(histBuckets-1), with one extra overflow bucket rendered as +Inf.
// 2^20 covers per-step spike counts, per-run costs, and millisecond
// latencies; larger observations land in the overflow bucket and only
// widen the top quantile estimate.
const histBuckets = 21

// Histogram is a log2-bucketed histogram of non-negative int64
// observations. Observe is lock-free and allocation-free (one atomic add
// on the bucket, one on the sum). Bucket bounds are fixed powers of two: coarse, but
// quantile estimates interpolate within a bucket, keeping relative error
// bounded by the bucket growth factor — accurate enough for the p50/p90/
// p99 the dashboard shows.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // [histBuckets] is the +Inf overflow
	sum    atomic.Int64
}

func newHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a value to its bucket index: v ≤ 1 → 0, otherwise the
// index of the smallest power-of-two upper bound ≥ v.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(v - 1))
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// BucketBound returns the upper bound of finite bucket i (math.Inf(1)
// for the overflow bucket) — exported for boundary tests and dashboards.
func BucketBound(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return float64(int64(1) << i)
}

// Observe records one value. Negative observations clamp to the first
// bucket (cost measures are non-negative by construction; a negative
// value is a caller bug we choose to absorb rather than panic in the
// step loop).
func (h *Histogram) Observe(v int64) {
	h.counts[bucketFor(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// inside the containing bucket. Returns 0 when the histogram is empty.
// The overflow bucket reports its lower bound (the largest finite
// boundary) — an underestimate, flagged by the dashboard as "≥".
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= histBuckets {
				return BucketBound(histBuckets - 1)
			}
			lower := 0.0
			if i > 0 {
				lower = BucketBound(i - 1)
			}
			upper := BucketBound(i)
			frac := (target - cum) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum = next
	}
	return BucketBound(histBuckets - 1)
}

// write renders the histogram in exposition format: cumulative
// `_bucket{le="..."}` series (empty buckets elided except the mandatory
// +Inf), then `_sum` and `_count`.
func (h *Histogram) write(w io.Writer, name, sig string) error {
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		c := h.counts[i].Load()
		cum += c
		if c == 0 && i < histBuckets {
			continue
		}
		le := `le="+Inf"`
		if i < histBuckets {
			le = fmt.Sprintf(`le="%d"`, int64(1)<<i)
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", sig, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_sum", sig, ""), h.sum.Load()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", sig, ""), cum)
	return err
}
