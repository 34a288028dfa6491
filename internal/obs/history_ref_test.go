package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// This file keeps a test-only copy of the history ring and the
// Prometheus renderer as they were before samples became rows over a
// cached layout: one refPoint per series per sample, and a renderer that
// sorts the families on every scrape. The row ring and the layout
// renderer must answer byte-identically.

type refPoint struct {
	Name    string
	Labels  string
	Kind    string
	Value   float64
	Count   int64
	SumNs   int64
	Buckets []int64
}

func refSample(r *Registry) []refPoint {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type entry struct {
		f *family
		s []*series
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		entries = append(entries, entry{f, append([]*series(nil), f.series...)})
	}
	r.mu.Unlock()

	var points []refPoint
	for _, e := range entries {
		for _, s := range e.s {
			p := refPoint{Name: e.f.name, Labels: s.labels, Kind: e.f.typ}
			switch {
			case s.counter != nil:
				p.Value = float64(s.counter())
			case s.gauge != nil:
				p.Value = s.gauge()
			case s.hist != nil:
				p.Buckets = make([]int64, histBuckets)
				for i := range s.hist.buckets {
					c := s.hist.buckets[i].Load()
					p.Buckets[i] = c
					p.Count += c
				}
				p.SumNs = s.hist.sumNs.Load()
			}
			points = append(points, p)
		}
	}
	return points
}

type refHistSample struct {
	at     time.Time
	points []refPoint
}

type refHistory struct {
	reg      *Registry
	capacity int
	buf      []refHistSample
	next     int
}

func (h *refHistory) record(at time.Time) {
	s := refHistSample{at: at, points: refSample(h.reg)}
	if len(h.buf) < h.capacity {
		h.buf = append(h.buf, s)
	} else {
		h.buf[h.next] = s
		h.next = (h.next + 1) % h.capacity
	}
}

func (h *refHistory) ordered() []refHistSample {
	out := make([]refHistSample, 0, len(h.buf))
	if len(h.buf) < h.capacity {
		return append(out, h.buf...)
	}
	for i := 0; i < len(h.buf); i++ {
		out = append(out, h.buf[(h.next+i)%h.capacity])
	}
	return out
}

func (h *refHistory) window(d time.Duration) WindowReport {
	samples := h.ordered()
	if len(samples) == 0 {
		return WindowReport{}
	}
	newest := samples[len(samples)-1]
	inWin := samples
	if d > 0 {
		cutoff := newest.at.Add(-d)
		for len(inWin) > 1 && inWin[0].at.Before(cutoff) {
			inWin = inWin[1:]
		}
	}
	rep := WindowReport{
		From:    inWin[0].at,
		To:      newest.at,
		Seconds: newest.at.Sub(inWin[0].at).Seconds(),
		Samples: len(inWin),
	}
	if len(inWin) < 2 {
		return rep
	}
	first := inWin[0]
	idx := make(map[[2]string]*refPoint, len(first.points))
	for i := range first.points {
		p := &first.points[i]
		idx[[2]string{p.Name, p.Labels}] = p
	}
	for i := range newest.points {
		last := &newest.points[i]
		f, ok := idx[[2]string{last.Name, last.Labels}]
		if !ok || f.Kind != last.Kind {
			continue
		}
		sw := SeriesWindow{Name: last.Name, Labels: last.Labels, Kind: last.Kind}
		switch last.Kind {
		case "histogram":
			var counts [histBuckets]int64
			for b := 0; b < histBuckets && b < len(last.Buckets) && b < len(f.Buckets); b++ {
				if delta := last.Buckets[b] - f.Buckets[b]; delta > 0 {
					counts[b] = delta
				}
			}
			for _, c := range counts {
				sw.Count += c
			}
			sw.First, sw.Last = float64(f.Count), float64(last.Count)
			sw.Delta = float64(sw.Count)
			if rep.Seconds > 0 {
				sw.Rate = sw.Delta / rep.Seconds
			}
			if sw.Count > 0 {
				sw.P50Ns = quantile(&counts, sw.Count, 0.50)
				sw.P99Ns = quantile(&counts, sw.Count, 0.99)
			}
		default:
			sw.First, sw.Last = f.Value, last.Value
			sw.Delta = last.Value - f.Value
			if rep.Seconds > 0 {
				sw.Rate = sw.Delta / rep.Seconds
			}
		}
		rep.Series = append(rep.Series, sw)
	}
	return rep
}

func refWritePrometheus(r *Registry) string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	sers := make([][]*series, len(names))
	for i, name := range names {
		f := r.families[name]
		fams[i] = f
		sers[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range sers[i] {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge()))
			case s.hist != nil:
				writePromHistogram(&b, f.name, s.labels, s.hist, s.size)
			}
		}
	}
	return b.String()
}

// historyOps drives a registry, a History and the reference ring with
// the same operations decoded from data: counter adds, gauge moves,
// latency and size observations, registrations, samples (which wrap
// the small ring) and window queries and scrapes, each compared
// byte for byte.
type historyOps struct {
	t     testing.TB
	data  []byte
	reg   *Registry
	hist  *History
	ref   *refHistory
	now   time.Time
	seq   int
	ctrs  []*Counter
	fns   []*int64
	gs    []*float64
	lat   []*Histogram
	sizes []*Histogram
}

func (o *historyOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

// register adds one series of the kind b selects. Each kind has two
// families, and a family's first series is unlabeled.
func (o *historyOps) register(b byte) {
	o.seq++
	name := fmt.Sprintf("%s_%c", []string{"ctr", "ctrfn", "gauge", "lat", "size"}[int(b)%5], 'a'+rune(b/5%2))
	var labels Labels
	o.reg.mu.Lock()
	if f := o.reg.families[name]; f != nil && len(f.series) > 0 {
		labels = Labels{{"k", strconv.Itoa(o.seq)}}
	}
	o.reg.mu.Unlock()
	help := "help " + strconv.Itoa(o.seq)
	switch int(b) % 5 {
	case 0:
		c := &Counter{}
		o.ctrs = append(o.ctrs, c)
		o.reg.CounterFunc(name, help, labels, c.Value)
	case 1:
		v := new(int64)
		o.fns = append(o.fns, v)
		o.reg.CounterFunc(name, help, labels, func() int64 { return *v })
	case 2:
		v := new(float64)
		o.gs = append(o.gs, v)
		o.reg.GaugeFunc(name, help, labels, func() float64 { return *v })
	case 3:
		h := &Histogram{}
		o.lat = append(o.lat, h)
		o.reg.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h})
	case 4:
		h := &Histogram{}
		o.sizes = append(o.sizes, h)
		o.reg.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h, size: true})
	}
}

func (o *historyOps) compareWindow(d time.Duration) {
	o.t.Helper()
	got, err := json.Marshal(o.hist.Window(d))
	if err != nil {
		o.t.Fatal(err)
	}
	want, err := json.Marshal(o.ref.window(d))
	if err != nil {
		o.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		o.t.Fatalf("Window(%v) differs from the reference\n got: %s\nwant: %s", d, got, want)
	}
}

func (o *historyOps) compareScrape() {
	o.t.Helper()
	var got strings.Builder
	if err := o.reg.WritePrometheus(&got); err != nil {
		o.t.Fatal(err)
	}
	if want := refWritePrometheus(o.reg); got.String() != want {
		o.t.Fatalf("exposition differs from the reference\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

func checkHistoryOps(t testing.TB, data []byte) {
	t.Helper()
	o := &historyOps{t: t, data: data, reg: NewRegistry(), now: time.Unix(1000, 0)}
	capacity := 2 + int(o.byte()%6)
	o.hist = NewHistory(o.reg, capacity, time.Second)
	o.ref = &refHistory{reg: o.reg, capacity: capacity}
	o.register(0)
	o.register(3)
	for len(o.data) > 0 {
		switch op, arg := o.byte()%8, o.byte(); op {
		case 0:
			if len(o.ctrs) > 0 {
				o.ctrs[int(arg)%len(o.ctrs)].Add(int64(o.byte()))
			}
			if len(o.fns) > 0 {
				*o.fns[int(arg)%len(o.fns)] += int64(arg)
			}
		case 1:
			if len(o.gs) > 0 {
				*o.gs[int(arg)%len(o.gs)] = float64(int8(o.byte())) / 4
			}
		case 2:
			if len(o.lat) > 0 {
				o.lat[int(arg)%len(o.lat)].Observe(time.Duration(o.byte()) << (o.byte() % 36))
			}
		case 3:
			if len(o.sizes) > 0 {
				o.sizes[int(arg)%len(o.sizes)].ObserveValue(int64(o.byte()) << (o.byte() % 20))
			}
		case 4:
			if o.seq < 40 {
				o.register(arg)
			}
		case 5:
			o.now = o.now.Add(time.Duration(arg%16) * 250 * time.Millisecond)
			o.hist.Record(o.now)
			o.ref.record(o.now)
		case 6:
			o.compareWindow(time.Duration(int(arg)%24-2) * 250 * time.Millisecond)
		case 7:
			o.compareScrape()
		}
	}
	o.compareWindow(0)
	o.compareScrape()
}

// TestHistoryMatchesReference runs random operation streams through the
// row ring and the reference ring: every Window and every scrape must
// be byte-identical, across registrations between samples, ring wraps
// and window lengths.
func TestHistoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for run := 0; run < 300; run++ {
		data := make([]byte, 50+rng.Intn(800))
		rng.Read(data)
		checkHistoryOps(t, data)
	}
}

func FuzzHistoryWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 0, 0, 9, 5, 4, 4, 7, 2, 0, 100, 9, 5, 4, 6, 0, 7, 0})
	f.Add([]byte{0, 4, 2, 5, 8, 4, 1, 1, 3, 5, 1, 3, 0, 200, 5, 2, 4, 4, 5, 3, 6, 9, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		checkHistoryOps(t, data)
	})
}
