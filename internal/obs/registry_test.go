package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusExact locks the exposition format down to exact
// lines: HELP/TYPE headers, counter and gauge rendering, label
// escaping, and a histogram's cumulative buckets, sum, and count.
func TestWritePrometheusExact(t *testing.T) {
	reg := NewRegistry()
	var demo struct {
		Requests Counter `metric:"demo_requests_total" help:"Requests accepted."`
	}
	reg.Export(&demo, nil)
	demo.Requests.Add(3)
	reg.CounterFunc("demo_requests_total", "Requests accepted.", Labels{{"plane", "0"}}, func() int64 { return 41 })
	reg.GaugeFunc("demo_queue_depth", "Queued requests.", nil, func() float64 { return 2.5 })
	reg.GaugeFunc("demo_weird_label", "Escaping.", Labels{{"q", "a\"b\\c\nd"}}, func() float64 { return 1 })
	var stage struct {
		Seconds Histogram `metric:"demo_stage_seconds" help:"Stage latency."`
	}
	reg.Export(&stage, Labels{{"stage", "plan"}})
	h := &stage.Seconds
	h.Observe(100 * time.Nanosecond) // bucket exp 7 -> first non-zero at le=2^8-1
	h.Observe(10 * time.Microsecond) // 10_000 ns -> exp 14 -> le=2^14-1
	h.Observe(5 * time.Millisecond)  // 5e6 ns -> exp 23 -> le=2^24-1
	h.Observe(200 * time.Second)     // beyond the largest exported bound -> +Inf only
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := strings.Join([]string{
		`# HELP demo_queue_depth Queued requests.`,
		`# TYPE demo_queue_depth gauge`,
		`demo_queue_depth 2.5`,
		`# HELP demo_requests_total Requests accepted.`,
		`# TYPE demo_requests_total counter`,
		`demo_requests_total 3`,
		`demo_requests_total{plane="0"} 41`,
		`# HELP demo_stage_seconds Stage latency.`,
		`# TYPE demo_stage_seconds histogram`,
		`demo_stage_seconds_bucket{stage="plan",le="6.3e-08"} 0`,
		`demo_stage_seconds_bucket{stage="plan",le="2.55e-07"} 1`,
		`demo_stage_seconds_bucket{stage="plan",le="1.023e-06"} 1`,
		`demo_stage_seconds_bucket{stage="plan",le="4.095e-06"} 1`,
		`demo_stage_seconds_bucket{stage="plan",le="1.6383e-05"} 2`,
		`demo_stage_seconds_bucket{stage="plan",le="6.5535e-05"} 2`,
		`demo_stage_seconds_bucket{stage="plan",le="0.000262143"} 2`,
		`demo_stage_seconds_bucket{stage="plan",le="0.001048575"} 2`,
		`demo_stage_seconds_bucket{stage="plan",le="0.004194303"} 2`,
		`demo_stage_seconds_bucket{stage="plan",le="0.016777215"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="0.067108863"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="0.268435455"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="1.073741823"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="4.294967295"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="17.179869183"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="68.719476735"} 3`,
		`demo_stage_seconds_bucket{stage="plan",le="+Inf"} 4`,
		`demo_stage_seconds_sum{stage="plan"} 200.0050101`,
		`demo_stage_seconds_count{stage="plan"} 4`,
		`# HELP demo_weird_label Escaping.`,
		`# TYPE demo_weird_label gauge`,
		`demo_weird_label{q="a\"b\\c\nd"} 1`,
		``,
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A registration between two scrapes rebuilds the cached layout: the
	// new series render where a renderer sorting on every scrape puts
	// them.
	reg.CounterFunc("demo_requests_total", "Requests accepted.", Labels{{"plane", "1"}}, func() int64 { return 7 })
	var sz struct {
		Batch Histogram `metric:"demo_batch,size" help:"Batch sizes."`
	}
	sz.Batch.ObserveValue(17)
	reg.Export(&sz, nil)
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got = b.String()
	if want := refWritePrometheus(reg); got != want {
		t.Fatalf("exposition after a registration:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if !strings.HasPrefix(got, "# HELP demo_batch Batch sizes.\n") || !strings.Contains(got, "demo_requests_total{plane=\"1\"} 7\n") {
		t.Fatalf("new series missing from the scrape:\n%s", got)
	}
}

// TestHistogramBucketsMonotone feeds a spread of durations and checks
// every exported cumulative bucket sequence is non-decreasing and ends
// at the series count — the property Prometheus requires of histogram
// exposition.
func TestHistogramBucketsMonotone(t *testing.T) {
	reg := NewRegistry()
	var m struct {
		H Histogram `metric:"mono_seconds" help:"m"`
	}
	reg.Export(&m, nil)
	h := &m.H
	d := time.Nanosecond
	for i := 0; i < 60; i++ {
		h.Observe(d)
		d = d*3 + 1
		if d > time.Minute {
			d = time.Nanosecond
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	buckets := 0
	var last int64
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "mono_seconds_bucket") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("cumulative buckets must be monotone: %d after %d in %q", v, prev, line)
		}
		prev, last = v, v
	}
	if buckets != len(promBucketExps)+1 {
		t.Fatalf("want %d bucket lines (+Inf included), got %d", len(promBucketExps)+1, buckets)
	}
	if last != 60 {
		t.Fatalf("+Inf bucket must equal the count: got %d, want 60", last)
	}
}

// TestHandlerContentType checks the /metrics handler serves the
// version 0.0.4 text exposition content type.
func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	var m struct {
		X Counter `metric:"x_total" help:"x"`
	}
	reg.Export(&m, nil)
	m.X.Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1\n") {
		t.Fatalf("body missing counter line:\n%s", rec.Body.String())
	}
}

// TestRegistryMisusePanics locks in the fail-fast registration
// contract: duplicate series and type-conflicting names are wiring
// bugs, caught at startup.
func TestRegistryMisusePanics(t *testing.T) {
	zero := func() int64 { return 0 }
	for name, f := range map[string]func(r *Registry){
		"duplicate series": func(r *Registry) {
			r.CounterFunc("a_total", "a", nil, zero)
			r.CounterFunc("a_total", "a", nil, zero)
		},
		"type conflict": func(r *Registry) {
			r.CounterFunc("a_total", "a", nil, zero)
			r.GaugeFunc("a_total", "a", Labels{{"x", "y"}}, func() float64 { return 0 })
		},
		"empty name": func(r *Registry) {
			r.CounterFunc("", "a", nil, zero)
		},
		"nil func": func(r *Registry) {
			r.CounterFunc("b_total", "b", nil, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			f(NewRegistry())
		}()
	}
}

// TestCounterMonotone checks negative deltas are ignored.
func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}
