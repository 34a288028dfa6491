package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an ordered set of label pairs attached to one metric
// series. Order is preserved in the exported text, so callers should
// pick one order per metric family and stick to it.
type Labels [][2]string

// Counter is a monotone counter: one field of a live metrics struct,
// registered by Export and copied into snapshots by Fill.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (which must be >= 0; negative
// deltas are ignored to keep the counter monotone).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// series is one labeled instance of a metric family. Exactly one of
// counter, gauge, hist is set, matching the family's type.
type series struct {
	labels  string // pre-rendered {k="v",...}, "" when unlabeled
	counter func() int64
	gauge   func() float64
	hist    *Histogram
	size    bool // hist holds unitless values, not nanoseconds
	off     int  // first word of this series' values in a history row
}

// histWords is how many history row words one histogram takes: its
// bucket counts. A counter or a gauge takes one word.
const histWords = histBuckets

// words is how many history row words s takes.
func (s *series) words() int {
	if s.hist != nil {
		return histWords
	}
	return 1
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a set of named metric families that renders itself in
// Prometheus text exposition format (version 0.0.4). Registration
// methods panic on misuse — duplicate series, a name reused with a
// different type — because metric wiring is program structure, not
// runtime input. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	width    int     // history row words taken by every series so far
	lay      *layout // nil until the next scrape or sample after a registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds one series under name, creating the family on first
// use and validating type consistency and series uniqueness.
func (r *Registry) register(name, help, typ string, s *series) {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, have := range f.series {
		if have.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	s.off = r.width
	r.width += s.words()
	f.series = append(f.series, s)
	r.lay = nil
}

// layout is the registry's series order at one registration state:
// families sorted by name, each family's series in registration order.
// A registration drops the cached layout and the next scrape or sample
// builds a new one. A built layout is never changed, so a history
// sample keeps a pointer to the one it was taken under.
//
// A series' row offset is fixed when it registers, so row words follow
// registration order: the row of an older layout is a prefix of the row
// of a newer one.
type layout struct {
	fams  []family
	width int // int64 words in one history row
}

// layout returns the cached layout, building it if a series has
// registered since the last call.
func (r *Registry) layout() *layout {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lay != nil {
		return r.lay
	}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	l := &layout{fams: make([]family, len(names)), width: r.width}
	for i, name := range names {
		f := r.families[name]
		l.fams[i] = family{name: name, help: f.help, typ: f.typ, series: append([]*series(nil), f.series...)}
	}
	r.lay = l
	return l
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time, for a count that is computed rather than stored in a
// live metrics struct (see Export). fn must be monotone and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	if fn == nil {
		panic("obs: CounterFunc requires a non-nil function")
	}
	r.register(name, help, "counter", &series{labels: renderLabels(labels), counter: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if fn == nil {
		panic("obs: GaugeFunc requires a non-nil function")
	}
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), gauge: fn})
}

// renderLabels renders labels as {k="v",...} with Prometheus escaping.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline as the
// exposition format requires.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promBucketExps are the bucket exponents exported to Prometheus: the
// le bound of exponent e is (2^e - 1) nanoseconds, which is the exact
// inclusive upper bound of the histogram's power-of-two bucket e (an
// observation of d nanoseconds lands in bucket bits.Len64(d), so every
// observation in buckets 0..e is <= 2^e - 1). The range spans 64 ns to
// ~69 s in factor-of-four steps; everything longer lands in +Inf.
var promBucketExps = []int{6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36}

// sizeBucketExps are the bucket exponents for size histograms: raw
// power-of-two value bounds from 1 to 65535, factor-of-two steps at the
// small end where batch sizes live.
var sizeBucketExps = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format: families sorted by name, series in
// registration order, histograms as cumulative le buckets in seconds
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.layout().fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
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
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram series: cumulative buckets
// with le in seconds (or raw values for size histograms), then _sum and
// _count in the same unit.
func writePromHistogram(b *strings.Builder, name, labels string, h *Histogram, size bool) {
	// Load the buckets once; the cumulative sums are then monotone by
	// construction even while Observe calls race the scrape.
	var counts [histBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	exps, scale := promBucketExps, 1e9
	if size {
		exps, scale = sizeBucketExps, 1
	}
	cum := int64(0)
	next := 0
	for _, e := range exps {
		for next <= e && next < histBuckets {
			cum += counts[next]
			next++
		}
		le := float64(int64(1)<<uint(e)-1) / scale
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(le)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), total)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.sumNs.Load())/scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, total)
}

// bucketLabels splices le="..." into a rendered label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the Prometheus text exposition content type the
// /metrics handler serves.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as a /metrics
// scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := r.WritePrometheus(w); err != nil {
			// The header is already out; nothing useful remains to report
			// to the scraper beyond the truncated body.
			return
		}
	})
}
