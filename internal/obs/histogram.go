// Package obs is the repo's zero-dependency observability layer: one
// registry of counters, gauges, and latency histograms shared by the
// engine, fabric, and collective layers, exported in Prometheus text
// format; plus lightweight trace spans with context-propagated trace
// IDs and a bounded ring of recent slow traces.
//
// The paper's claim is a delay budget — O(log N) setup plus O(log N)
// transmission — and the point of this package is to make both halves
// measurable in the running system instead of inferred from one-shot
// benchmarks: every pipeline stage (plan-cache lookup, setup, payload
// application, VOQ wait, matching extraction, plane transit, output
// verification, collective rounds) records into a Histogram, and a
// single request's journey through those stages can be reconstructed
// from its trace.
//
// Everything here is allocation-free on the record path: Histogram
// observation is three atomic adds, and trace methods are no-ops on a
// nil *Trace so untraced requests pay only a nil check.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations with bits.Len64(ns) == i, i.e. durations in
// [2^(i-1), 2^i) nanoseconds; the last bucket absorbs everything longer
// (> ~9 minutes).
const histBuckets = 40

// Histogram is a fixed-allocation, lock-free latency histogram with
// power-of-two nanosecond buckets. The zero value is ready to use and
// all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. It performs no allocations.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	idx := bits.Len64(uint64(ns))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[idx].Add(1)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// ObserveValue records one unitless value — a batch size, a coalesce
// count — into the same power-of-two buckets the latency path uses. A
// histogram holds durations or values, never both; on a value
// histogram the snapshot's *Ns fields read as raw values. Tag value
// histograms ",size" (see Export) so the exposition's le bounds stay
// unitless instead of being scaled to seconds.
func (h *Histogram) ObserveValue(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(v)
	h.buckets[idx].Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// BucketCount is one non-empty histogram bucket: Count observations at
// or below UpToNs nanoseconds (and above the previous bucket's bound).
type BucketCount struct {
	UpToNs int64 `json:"up_to_ns"`
	Count  int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time, JSON-friendly view of a
// Histogram. Quantiles are upper bounds of the containing bucket, so
// they are conservative to within a factor of two.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	MeanNs  int64         `json:"mean_ns"`
	P50Ns   int64         `json:"p50_ns"`
	P90Ns   int64         `json:"p90_ns"`
	P99Ns   int64         `json:"p99_ns"`
	P999Ns  int64         `json:"p999_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may straddle the capture; each bucket is read atomically, once.
// A non-empty snapshot allocates one slice, sized to its non-empty
// buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]int64
	total, filled := int64(0), 0
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			filled++
		}
	}
	s := HistogramSnapshot{Count: total}
	if total == 0 {
		return s
	}
	s.MeanNs = h.sumNs.Load() / total
	s.P50Ns = quantile(&counts, total, 0.50)
	s.P90Ns = quantile(&counts, total, 0.90)
	s.P99Ns = quantile(&counts, total, 0.99)
	s.P999Ns = quantile(&counts, total, 0.999)
	s.Buckets = make([]BucketCount, 0, filled)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpToNs: bucketUpper(i), Count: c})
		}
	}
	return s
}

// bucketUpper returns the exclusive upper bound (in ns) of bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0 // bucket 0 holds only zero-duration observations
	}
	return 1 << uint(i)
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile observation.
func quantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}
