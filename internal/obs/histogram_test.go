package obs

import (
	"testing"
	"time"
)

// TestHistogram checks bucketing, quantile monotonicity, and the mean.
func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond) // bucket [64,128)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50Ns > s.P90Ns || s.P90Ns > s.P99Ns || s.P99Ns > s.P999Ns {
		t.Fatalf("quantiles must be monotone: %d %d %d %d", s.P50Ns, s.P90Ns, s.P99Ns, s.P999Ns)
	}
	if s.P50Ns != 128 {
		t.Fatalf("p50 should be the 100ns bucket's upper bound 128, got %d", s.P50Ns)
	}
	if s.P99Ns < 5_000_000 {
		t.Fatalf("p99 should reach the 5ms observation, got %d", s.P99Ns)
	}
	wantMean := (90*100 + 9*10_000 + 5_000_000) / 100
	if s.MeanNs != int64(wantMean) {
		t.Fatalf("mean = %d, want %d", s.MeanNs, wantMean)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("want 3 non-empty buckets, got %v", s.Buckets)
	}
}

// TestHistogramEdges covers zero, negative, and overflowing durations.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clamped to 0
	h.Observe(1 << 62)      // beyond the last bucket bound
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Buckets[0].UpToNs != 0 || s.Buckets[0].Count != 2 {
		t.Fatalf("zero bucket wrong: %+v", s.Buckets)
	}
}

// TestHistogramP999 separates p99 from p999: with 2 slow samples in
// 1001, the slow tail is ~0.2% of traffic — past the 99.9th percentile
// but invisible to the 99th.
func TestHistogramP999(t *testing.T) {
	var h Histogram
	for i := 0; i < 999; i++ {
		h.Observe(200 * time.Nanosecond)
	}
	h.Observe(80 * time.Millisecond)
	h.Observe(80 * time.Millisecond)
	s := h.Snapshot()
	if s.P99Ns >= 1_000_000 {
		t.Fatalf("p99 should stay in the fast bucket, got %d", s.P99Ns)
	}
	if s.P999Ns < 80_000_000 {
		t.Fatalf("p999 should reach the 80ms outlier, got %d", s.P999Ns)
	}
}

// TestObserveAllocFree pins the acceptance criterion that the record
// path performs no allocations: it is what lets every pipeline stage
// observe on its hot path.
func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(137 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Observe allocates %.1f objects per call, want 0", n)
	}
	t0 := time.Now()
	if n := testing.AllocsPerRun(1000, func() { h.ObserveSince(t0) }); n != 0 {
		t.Fatalf("ObserveSince allocates %.1f objects per call, want 0", n)
	}
}

// TestSnapshotAllocs: a snapshot allocates its bucket list once, sized
// to the non-empty buckets, and nothing when the histogram is empty.
func TestSnapshotAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Snapshot() }); n != 0 {
		t.Fatalf("empty histogram: Snapshot allocates %.1f objects, want 0", n)
	}
	filled := 0
	for _, want := range []int{1, 9, 20} {
		for ; filled < want; filled++ {
			h.Observe(time.Duration(1) << uint(2*filled)) // one new bucket each
		}
		var s HistogramSnapshot
		if n := testing.AllocsPerRun(100, func() { s = h.Snapshot() }); n != 1 {
			t.Fatalf("%d non-empty buckets: Snapshot allocates %.1f objects, want 1", want, n)
		}
		if len(s.Buckets) != want || cap(s.Buckets) != want {
			t.Fatalf("%d non-empty buckets: snapshot holds %d (cap %d)", want, len(s.Buckets), cap(s.Buckets))
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
