package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"
)

// sample reads every series of l into one new history row.
func (l *layout) sample() []int64 {
	row := make([]int64, l.width)
	for _, f := range l.fams {
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				row[s.off] = s.counter()
			case s.gauge != nil:
				row[s.off] = int64(math.Float64bits(s.gauge()))
			case s.hist != nil:
				w := row[s.off : s.off+histWords]
				for i := range s.hist.buckets {
					w[i] = s.hist.buckets[i].Load()
				}
			}
		}
	}
	return row
}

// histSample is one full-registry capture: one row of values over the
// layout it was read under. Record never writes a row after it
// publishes the sample.
type histSample struct {
	at  time.Time
	lay *layout
	row []int64
}

// History is the bounded snapshot time-series ring: it periodically
// samples a whole Registry so rate-over-time and windowed-percentile
// queries can be answered from process memory, without an external
// Prometheus scraping and storing the series. Each sample is one row of
// int64 words, one per counter or gauge and histWords per histogram,
// allocated when the sample is taken; old samples are overwritten in
// ring order.
type History struct {
	reg      *Registry
	capacity int
	interval time.Duration

	mu   sync.Mutex
	buf  []histSample
	next int

	startOnce, stopOnce sync.Once
	stop                chan struct{}
	done                chan struct{}
}

// NewHistory builds a ring of up to capacity samples taken every
// interval once Start is called (capacity < 2 is raised to 2; interval
// <= 0 defaults to one second).
func NewHistory(reg *Registry, capacity int, interval time.Duration) *History {
	if capacity < 2 {
		capacity = 2
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &History{
		reg:      reg,
		capacity: capacity,
		interval: interval,
		buf:      make([]histSample, 0, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling period.
func (h *History) Interval() time.Duration { return h.interval }

// Record captures one sample now. The background sampler calls this on
// every tick; tests call it directly for deterministic rings.
func (h *History) Record(at time.Time) {
	lay := h.reg.layout()
	s := histSample{at: at, lay: lay, row: lay.sample()}
	h.mu.Lock()
	if len(h.buf) < h.capacity {
		h.buf = append(h.buf, s)
	} else {
		h.buf[h.next] = s
		h.next = (h.next + 1) % h.capacity
	}
	h.mu.Unlock()
}

// Start launches the background sampler. Start is idempotent.
func (h *History) Start() {
	h.startOnce.Do(func() {
		go func() {
			defer close(h.done)
			t := time.NewTicker(h.interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					h.Record(now)
				case <-h.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the sampler and waits for it to exit. Stop is idempotent
// and safe to call even if Start never ran.
func (h *History) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: unblock the wait
	<-h.done
}

// span returns the oldest sample inside the trailing window d (the
// whole ring when d <= 0), the newest sample, and how many samples the
// window holds.
func (h *History) span(d time.Duration) (first, last histSample, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n = len(h.buf)
	if n == 0 {
		return first, last, 0
	}
	// h.next is the oldest sample once the ring is full and 0 before.
	at := func(i int) histSample { return h.buf[(h.next+i)%n] }
	i := 0
	if last = at(n - 1); d > 0 {
		cutoff := last.at.Add(-d)
		for n-i > 1 && at(i).at.Before(cutoff) {
			i++
		}
	}
	return at(i), last, n - i
}

// SeriesWindow is one series' change across a window: counter deltas
// and per-second rates, gauge movement, and — for histograms — the
// observation count and p50/p99 of just the window's observations
// (bucket-count subtraction between the window's endpoints).
type SeriesWindow struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	Delta  float64 `json:"delta"`
	Rate   float64 `json:"rate_per_sec"`
	Count  int64   `json:"count,omitempty"`
	P50Ns  int64   `json:"p50_ns,omitempty"`
	P99Ns  int64   `json:"p99_ns,omitempty"`
}

// WindowReport answers one history query: the real time span covered,
// how many samples fell inside it, and every series' movement.
type WindowReport struct {
	From    time.Time      `json:"from"`
	To      time.Time      `json:"to"`
	Seconds float64        `json:"seconds"`
	Samples int            `json:"samples"`
	Series  []SeriesWindow `json:"series"`
}

// Window reports every series' change over the trailing window d. d <=
// 0 means the whole ring. With fewer than two samples in the window the
// report carries no series (there is no delta to compute).
func (h *History) Window(d time.Duration) WindowReport {
	first, last, n := h.span(d)
	if n == 0 {
		return WindowReport{}
	}
	rep := WindowReport{
		From:    first.at,
		To:      last.at,
		Seconds: last.at.Sub(first.at).Seconds(),
		Samples: n,
	}
	if n < 2 {
		return rep
	}
	// Row words follow registration order, so the first row is a prefix
	// of the last. A series whose words end past it registered after the
	// first sample and has no delta. A name keeps its type, so a series
	// is the same kind at both ends.
	for _, f := range last.lay.fams {
		for _, s := range f.series {
			if end := s.off + s.words(); end <= len(first.row) {
				rep.Series = append(rep.Series, seriesWindow(f.name, s.labels, f.typ, first.row[s.off:end], last.row[s.off:end], rep.Seconds))
			}
		}
	}
	return rep
}

// seriesWindow computes one series' movement between its values in the
// window's first and last rows.
func seriesWindow(name, labels, kind string, first, last []int64, seconds float64) SeriesWindow {
	sw := SeriesWindow{Name: name, Labels: labels, Kind: kind}
	switch kind {
	case "histogram":
		var counts [histBuckets]int64
		var firstN, lastN int64
		for b := range counts {
			firstN += first[b]
			lastN += last[b]
			if delta := last[b] - first[b]; delta > 0 {
				counts[b] = delta
				sw.Count += delta
			}
		}
		sw.First, sw.Last = float64(firstN), float64(lastN)
		sw.Delta = float64(sw.Count)
		if sw.Count > 0 {
			sw.P50Ns = quantile(&counts, sw.Count, 0.50)
			sw.P99Ns = quantile(&counts, sw.Count, 0.99)
		}
	case "gauge":
		sw.First, sw.Last = math.Float64frombits(uint64(first[0])), math.Float64frombits(uint64(last[0]))
		sw.Delta = sw.Last - sw.First
	default:
		sw.First, sw.Last = float64(first[0]), float64(last[0])
		sw.Delta = sw.Last - sw.First
	}
	if seconds > 0 {
		sw.Rate = sw.Delta / seconds
	}
	return sw
}

// Handler serves the history as the /debug/history endpoint:
// ?window=30s selects the trailing window (default: the whole ring).
func (h *History) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := time.Duration(0)
		if raw := r.URL.Query().Get("window"); raw != "" {
			parsed, err := time.ParseDuration(raw)
			if err != nil || parsed < 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "bad window: " + raw})
				return
			}
			d = parsed
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(h.Window(d)); err != nil {
			return // body already streaming; nothing left to report
		}
	})
}
