package engine

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHistogram checks bucketing, quantile monotonicity, and the mean.
func TestHistogram(t *testing.T) {
	var h obs.Histogram
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
	if s.P50Ns > s.P90Ns || s.P90Ns > s.P99Ns {
		t.Fatalf("quantiles must be monotone: %d %d %d", s.P50Ns, s.P90Ns, s.P99Ns)
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
	var h obs.Histogram
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

// TestSnapshotJSON checks the snapshot marshals to JSON with the
// advertised fields.
func TestSnapshotJSON(t *testing.T) {
	eng, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := []int{1, 0, 3, 2, 5, 4, 7, 6}
	eng.Route(d, payload(8))
	eng.Route(d, payload(8))

	raw, err := json.Marshal(eng.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, raw)
	}
	for _, field := range []string{"requests", "hits", "misses", "fallbacks", "plan", "apply"} {
		if _, ok := decoded[field]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", field, raw)
		}
	}

	s := eng.Stats()
	if s.Requests != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("unexpected counters: %+v", s)
	}
	if s.PlansCached != 1 {
		t.Fatalf("one plan should be cached, got %d", s.PlansCached)
	}
	if s.Plan.Count != 2 || s.Apply.Count != 2 {
		t.Fatalf("per-stage histograms should see both requests: %+v", s)
	}
}
