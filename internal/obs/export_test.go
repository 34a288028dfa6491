package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// demoLive is a live metrics struct with every shape Export and Fill
// handle: counters, a latency and a size histogram, an unexported
// counter and a nested group.
type demoLive struct {
	Requests Counter   `metric:"demo_requests_total" help:"Requests accepted."`
	Plan     Histogram `metric:"demo_plan_seconds" help:"Plan time."`
	Batch    Histogram `metric:"demo_batch_size,size" help:"Batch sizes."`
	Mcast    struct {
		Copies Counter `metric:"demo_mcast_copies_total" help:"Copies."`
	}
	hidden Counter `metric:"demo_hidden_total" help:"Unexported."`
}

type demoSnap struct {
	Requests int64             `json:"requests"`
	Plan     HistogramSnapshot `json:"plan"`
	Batch    HistogramSnapshot `json:"batch"`
	Mcast    struct {
		Copies int64   `json:"copies"`
		Ratio  float64 `json:"ratio"`
	} `json:"mcast"`
	hidden  int64
	Derived float64 `json:"derived"`
}

// TestExportMatchesHandRegistration checks Export registers each
// tagged field as the hand-written calls it replaces would, names,
// help, labels, order and size bounds included.
func TestExportMatchesHandRegistration(t *testing.T) {
	var live demoLive
	live.Requests.Add(3)
	live.Plan.Observe(5 * time.Microsecond)
	live.Batch.ObserveValue(17)
	live.Mcast.Copies.Add(2)
	live.hidden.Inc()
	labels := Labels{{"plane", "1"}}

	got, want := NewRegistry(), NewRegistry()
	got.Export(&live, labels)
	want.CounterFunc("demo_requests_total", "Requests accepted.", labels, live.Requests.Value)
	want.register("demo_plan_seconds", "Plan time.", "histogram", &series{labels: renderLabels(labels), hist: &live.Plan})
	want.register("demo_batch_size", "Batch sizes.", "histogram", &series{labels: renderLabels(labels), hist: &live.Batch, size: true})
	want.CounterFunc("demo_mcast_copies_total", "Copies.", labels, live.Mcast.Copies.Value)
	want.CounterFunc("demo_hidden_total", "Unexported.", labels, live.hidden.Value)
	var g, w strings.Builder
	if err := got.WritePrometheus(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if g.String() != w.String() {
		t.Fatalf("Export differs from hand registration:\n--- got ---\n%s\n--- want ---\n%s", g.String(), w.String())
	}
	if got.layout().width != want.layout().width {
		t.Fatalf("history row width %d, want %d", got.layout().width, want.layout().width)
	}
	// The registry reads the live fields, not a copy.
	live.Requests.Add(4)
	g.Reset()
	if err := got.WritePrometheus(&g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "demo_requests_total{plane=\"1\"} 7\n") {
		t.Fatalf("scrape missed a live update:\n%s", g.String())
	}
}

// TestFillCopiesByName checks Fill copies every series into the field
// of its name, groups included, and leaves derived fields alone.
func TestFillCopiesByName(t *testing.T) {
	var live demoLive
	live.Requests.Add(3)
	live.Plan.Observe(5 * time.Microsecond)
	live.Batch.ObserveValue(17)
	live.Mcast.Copies.Add(2)
	live.hidden.Add(9)
	for round := 0; round < 2; round++ { // the second Fill runs the cached plan
		s := demoSnap{Derived: 0.5}
		s.Mcast.Ratio = 1.5
		Fill(&s, &live)
		if s.Requests != 3 || s.Mcast.Copies != 2 || s.hidden != 9 || s.Derived != 0.5 || s.Mcast.Ratio != 1.5 {
			t.Fatalf("round %d: filled %+v", round, s)
		}
		if fmt.Sprint(s.Plan) != fmt.Sprint(live.Plan.Snapshot()) || fmt.Sprint(s.Batch) != fmt.Sprint(live.Batch.Snapshot()) {
			t.Fatalf("round %d: histograms %+v %+v", round, s.Plan, s.Batch)
		}
	}
}

// mustPanic runs f and returns its panic message, failing the test if
// f returns normally.
func mustPanic(t *testing.T, name string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: want panic", name)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestExportFillMisuse checks each wiring mistake panics with a
// message naming the field at fault.
func TestExportFillMisuse(t *testing.T) {
	exports := []struct {
		name, field string
		live        any
	}{
		{"tag on an int64", "Hits", &struct {
			Hits int64 `metric:"x_total" help:"x"`
		}{}},
		{"tag on a group", "Group", &struct {
			Group struct{ C Counter } `metric:"x_total" help:"x"`
		}{}},
		{"untagged counter", "Mcast.Copies", &struct {
			Mcast struct{ Copies Counter }
		}{}},
		{"size option on a counter", "Hits", &struct {
			Hits Counter `metric:"x_total,size" help:"x"`
		}{}},
		{"unknown option", "Wait", &struct {
			Wait Histogram `metric:"x_seconds,bytes" help:"x"`
		}{}},
		{"not a pointer", "", struct{}{}},
	}
	for _, tc := range exports {
		msg := mustPanic(t, tc.name, func() { NewRegistry().Export(tc.live, nil) })
		if !strings.Contains(msg, tc.field) {
			t.Errorf("%s: panic %q does not name %q", tc.name, msg, tc.field)
		}
	}

	var live demoLive
	fills := []struct {
		name, field string
		snap        any
	}{
		{"no such field", "Mcast.Copies", &struct {
			Requests, hidden int64
			Plan, Batch      HistogramSnapshot
			Mcast            struct{ Other int64 }
		}{}},
		{"counter into an int", "Requests", &struct{ Requests int }{}},
		{"histogram into an int64", "Plan", &struct {
			Requests int64
			Plan     int64
		}{}},
		{"group into a scalar", "Mcast.Copies", &struct {
			Requests, hidden int64
			Plan, Batch      HistogramSnapshot
			Mcast            int64
		}{}},
	}
	for _, tc := range fills {
		msg := mustPanic(t, tc.name, func() { Fill(tc.snap, &live) })
		if !strings.Contains(msg, tc.field) {
			t.Errorf("%s: panic %q does not name %q", tc.name, msg, tc.field)
		}
	}
}
