package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testCounter exports one counter, test_total, into reg.
func testCounter(reg *Registry) *Counter {
	m := &struct {
		C Counter `metric:"test_total" help:"t"`
	}{}
	reg.Export(m, nil)
	return &m.C
}

func TestRegistrySample(t *testing.T) {
	reg := NewRegistry()
	var m struct {
		Requests Counter   `metric:"test_requests_total" help:"requests"`
		Latency  Histogram `metric:"test_latency_ns" help:"latency"`
	}
	reg.Export(&m, nil)
	m.Requests.Add(3)
	reg.GaugeFunc("test_depth", "depth", Labels{{"q", "a"}}, func() float64 { return 1.5 })
	m.Latency.Observe(100 * time.Nanosecond)
	m.Latency.Observe(100 * time.Nanosecond)

	lay := reg.layout()
	if want := 1 + 1 + histWords; lay.width != want {
		t.Fatalf("row width %d, want %d", lay.width, want)
	}
	row := lay.sample()
	words := map[string][]int64{}
	for _, f := range lay.fams {
		for _, s := range f.series {
			words[f.name+s.labels] = row[s.off:]
		}
	}
	if w := words["test_requests_total"]; w[0] != 3 {
		t.Fatalf("counter word = %d", w[0])
	}
	if w := words[`test_depth{q="a"}`]; math.Float64frombits(uint64(w[0])) != 1.5 {
		t.Fatalf("gauge word = %#x", w[0])
	}
	if w := words["test_latency_ns"]; w[bits.Len64(100)] != 2 {
		t.Fatalf("histogram words = %v", w[:histWords])
	}

	// The layout is kept until a series registers; families stay sorted,
	// and the new series' words follow the old row.
	if reg.layout() != lay {
		t.Fatal("layout rebuilt without a registration")
	}
	reg.Export(&struct {
		A Counter `metric:"test_a_total" help:"a"`
	}{}, nil)
	again := reg.layout()
	if again == lay || again.fams[0].name != "test_a_total" || again.width != lay.width+1 {
		t.Fatalf("layout after a registration: first family %q, width %d", again.fams[0].name, again.width)
	}
	if off := again.fams[0].series[0].off; off != lay.width {
		t.Fatalf("new series at word %d, want %d after the old row", off, lay.width)
	}
}

func TestHistoryWindow(t *testing.T) {
	reg := NewRegistry()
	var m struct {
		C Counter   `metric:"test_total" help:"t"`
		H Histogram `metric:"test_ns" help:"t"`
	}
	reg.Export(&m, nil)
	c, h := &m.C, &m.H

	hist := NewHistory(reg, 8, time.Second)
	t0 := time.Unix(1000, 0)

	c.Add(10)
	h.Observe(100 * time.Nanosecond)
	hist.Record(t0)

	c.Add(40)
	for i := 0; i < 9; i++ {
		h.Observe(1000 * time.Nanosecond)
	}
	hist.Record(t0.Add(10 * time.Second))

	rep := hist.Window(0)
	if rep.Samples != 2 || rep.Seconds != 10 {
		t.Fatalf("report span: %+v", rep)
	}
	var cw, hw *SeriesWindow
	for i := range rep.Series {
		switch rep.Series[i].Name {
		case "test_total":
			cw = &rep.Series[i]
		case "test_ns":
			hw = &rep.Series[i]
		}
	}
	if cw == nil || hw == nil {
		t.Fatalf("missing series in %+v", rep.Series)
	}
	if cw.Delta != 40 || cw.Rate != 4 || cw.First != 10 || cw.Last != 50 {
		t.Fatalf("counter window = %+v", cw)
	}
	// Window holds 9 of the 10 observations; all 9 are ~1000ns, so both
	// windowed percentiles land in the same power-of-two bucket.
	if hw.Count != 9 || hw.P50Ns != hw.P99Ns || hw.P50Ns < 1000 {
		t.Fatalf("histogram window = %+v", hw)
	}

	// A narrow window sees only the newest sample: no deltas.
	if narrow := hist.Window(time.Second); narrow.Samples != 1 || narrow.Series != nil {
		t.Fatalf("narrow window = %+v", narrow)
	}
}

func TestHistoryRingWraps(t *testing.T) {
	reg := NewRegistry()
	c := testCounter(reg)
	hist := NewHistory(reg, 3, time.Second)
	t0 := time.Unix(2000, 0)
	for i := 0; i < 7; i++ {
		c.Add(1)
		hist.Record(t0.Add(time.Duration(i) * time.Second))
	}
	rep := hist.Window(0)
	if rep.Samples != 3 {
		t.Fatalf("ring should cap at 3 samples, got %d", rep.Samples)
	}
	// Oldest retained sample saw counter=5, newest saw 7.
	if rep.Series[0].Delta != 2 || rep.Seconds != 2 {
		t.Fatalf("wrapped window = %+v (seconds %v)", rep.Series[0], rep.Seconds)
	}
}

func TestHistoryHandler(t *testing.T) {
	reg := NewRegistry()
	c := testCounter(reg)
	hist := NewHistory(reg, 4, time.Second)
	t0 := time.Unix(3000, 0)
	c.Add(1)
	hist.Record(t0)
	c.Add(2)
	hist.Record(t0.Add(5 * time.Second))

	srv := httptest.NewServer(hist.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/?window=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var rep WindowReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 2 || len(rep.Series) != 1 || rep.Series[0].Delta != 2 {
		t.Fatalf("decoded report = %+v", rep)
	}

	bad, err := srv.Client().Get(srv.URL + "/?window=banana")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("bad window status %d, want 400", bad.StatusCode)
	}
}

func TestHistoryStartStop(t *testing.T) {
	reg := NewRegistry()
	testCounter(reg)
	hist := NewHistory(reg, 4, time.Millisecond)
	hist.Start()
	deadline := time.Now().Add(2 * time.Second)
	for hist.Window(0).Samples < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	hist.Stop()
	if hist.Window(0).Samples < 2 {
		t.Fatal("sampler never recorded")
	}
	hist.Stop() // idempotent

	// Stop without Start must not hang.
	idle := NewHistory(reg, 2, time.Second)
	idle.Stop()
}
