package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrent hammers one histogram from many goroutines
// while snapshots and Prometheus scrapes are taken concurrently, then
// checks no observation was lost and every mid-flight snapshot was
// internally consistent. Run with -race.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	reg := NewRegistry()
	var m struct {
		H Histogram `metric:"conc_seconds" help:"c"`
	}
	reg.Export(&m, nil)
	h := &m.H
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run for the duration of the writers: snapshots must see
	// monotone counts and bucket sums equal to the count field.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastCount int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if snap.Count < lastCount {
					t.Errorf("snapshot count went backwards: %d -> %d", lastCount, snap.Count)
					return
				}
				lastCount = snap.Count
				var sum int64
				for _, b := range snap.Buckets {
					sum += b.Count
				}
				if sum != snap.Count {
					t.Errorf("bucket sum %d != count %d", sum, snap.Count)
					return
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	snap := h.Snapshot()
	if want := int64(goroutines * perG); snap.Count != want {
		t.Fatalf("lost observations: count = %d, want %d", snap.Count, want)
	}
}

// TestTraceRingConcurrent records traces (with spans being added from
// multiple goroutines) while the ring is concurrently observed and
// snapshotted: the ring must stay bounded, every observed trace must
// be counted exactly once, and snapshots must never tear. Run with
// -race.
func TestTraceRingConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 200
		capacity   = 32
	)
	ring := NewTraceRing(capacity, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := ring.Snapshot()
			if len(snap.Traces) > capacity {
				t.Errorf("ring over capacity: %d > %d", len(snap.Traces), capacity)
				return
			}
			if snap.Kept > snap.Seen {
				t.Errorf("kept %d > seen %d", snap.Kept, snap.Seen)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				tr := NewTrace(fmt.Sprintf("g%d-%d", g, i))
				t0 := time.Now()
				tr.Ref()
				// A second goroutine adds spans and drops the packet
				// reference, racing the request-side release below.
				done := make(chan struct{})
				go func() {
					tr.Span("deliver", t0, "")
					if tr.Release() {
						ring.Observe(tr)
					}
					close(done)
				}()
				tr.Span("admit", t0, "")
				if tr.Release() {
					ring.Observe(tr)
				}
				<-done
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	snap := ring.Snapshot()
	if want := int64(goroutines * perG); snap.Seen != want {
		t.Fatalf("seen = %d, want %d (each trace observed exactly once)", snap.Seen, want)
	}
	if len(snap.Traces) != capacity {
		t.Fatalf("ring should be full at %d, got %d", capacity, len(snap.Traces))
	}
	for _, tr := range snap.Traces {
		if len(tr.Spans) != 2 {
			t.Fatalf("trace %s has %d spans, want 2", tr.Name, len(tr.Spans))
		}
	}
}

// TestHistoryConcurrent records history samples while windows, the
// /debug/history handler and scrapes read the ring and new series
// register, so samples straddle layouts. Every report must decode and
// show no counter going backwards. Run with -race.
func TestHistoryConcurrent(t *testing.T) {
	const (
		samples  = 400
		capacity = 4
	)
	reg := NewRegistry()
	var m struct {
		C Counter   `metric:"conc_total" help:"c"`
		H Histogram `metric:"conc_seconds" help:"c"`
	}
	reg.Export(&m, nil)
	c, h := &m.C, &m.H
	hist := NewHistory(reg, capacity, time.Second)
	handler := hist.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := hist.Window(0)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/?window=2s", nil))
				var served WindowReport
				if err := json.NewDecoder(rec.Body).Decode(&served); rec.Code != 200 || err != nil {
					t.Errorf("handler: status %d, decode %v", rec.Code, err)
					return
				}
				for _, r := range []WindowReport{rep, served} {
					if r.Samples > capacity {
						t.Errorf("window holds %d samples, ring capacity %d", r.Samples, capacity)
						return
					}
					for _, sw := range r.Series {
						if sw.Delta < 0 {
							t.Errorf("%s%s moved backwards: %+v", sw.Name, sw.Labels, sw)
							return
						}
					}
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			late := &struct {
				C Counter `metric:"conc_late_total" help:"l"`
			}{}
			reg.Export(late, Labels{{"i", strconv.Itoa(i)}})
			late.C.Inc()
		}
	}()
	t0 := time.Unix(0, 0)
	for i := 0; i < samples; i++ {
		c.Inc()
		h.Observe(time.Duration(i) * time.Microsecond)
		hist.Record(t0.Add(time.Duration(i) * time.Second))
	}
	close(stop)
	wg.Wait()

	// Once every registration has landed, a full ring of fresh samples
	// shares one layout and reports every series.
	for i := 0; i < capacity; i++ {
		c.Inc()
		hist.Record(t0.Add(time.Duration(samples+i) * time.Second))
	}
	rep := hist.Window(0)
	if want := 50 + 2; rep.Samples != capacity || len(rep.Series) != want {
		t.Fatalf("final report: %d samples, %d series, want %d and %d", rep.Samples, len(rep.Series), capacity, want)
	}
	for _, sw := range rep.Series {
		if sw.Name == "conc_total" && sw.Delta != capacity-1 {
			t.Fatalf("conc_total moved %v over the last %d samples, want %d", sw.Delta, capacity, capacity-1)
		}
	}
}
