package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := specMetric{Name: "lat_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 60, 140, 100, 80, 120, 90, 110}
	for _, tc := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{higher, base, scale(base, 1.2), "improved"},
		{higher, base, scale(base, 0.95), "no worse"},
		{higher, base, scale(base, 0.8), "worse"},
		{lower, base, scale(base, 0.8), "improved"},
		{lower, base, scale(base, 1.2), "worse"},
		{higher, noisy, scale(noisy, 0.97), "unresolved"},
		{higher, noisy, scale(base, 2), "improved"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.m.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareReport(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct{ Name string }{"w"})
	dir := t.TempDir()
	for p := 1; p <= 10; p++ {
		for side, v := range map[string]float64{"A": 100 + float64(p%3), "B": 70 + float64(p%3)} {
			out := fmt.Sprintf("w  ops_per_s  %g 1/s\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n", v)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.%s.w.out", p, side)), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 20 || !runs[0].correct || runs[0].metrics["ops_per_s"] == 0 {
		t.Fatalf("read %d runs, first %+v", len(runs), runs[0])
	}
	var out bytes.Buffer
	if compareReport(spec, runs, &out) || !strings.Contains(out.String(), "worse (bound 10%)") {
		t.Errorf("a 30%% throughput drop passed:\n%s", out.String())
	}

	spec.PerLayer, spec.EndToEnd = spec.EndToEnd, nil
	spec.PerLayer[0].Bound = 0
	out.Reset()
	if !compareReport(spec, runs, &out) || !strings.Contains(out.String(), "no bound") {
		t.Errorf("an unbounded metric was judged:\n%s", out.String())
	}

	runs[3].correct = false
	if compareReport(spec, runs, &out) {
		t.Error("an incorrect run passed")
	}
}
