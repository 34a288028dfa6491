package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpansAndContext covers span recording, context carriage,
// and the nil no-op contract instrumentation points rely on.
func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("POST /collective")
	ctx := With(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace should round-trip through context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield a nil trace")
	}

	t0 := time.Now()
	tr.Span("round", t0, "round=0 plane=1")
	tr.SpanDur("round", t0, 3*time.Millisecond, "round=1 plane=0")
	s := tr.Snapshot()
	if s.Name != "POST /collective" || s.ID == "" {
		t.Fatalf("snapshot header wrong: %+v", s)
	}
	if len(s.Spans) != 2 {
		t.Fatalf("want 2 spans, got %+v", s.Spans)
	}
	if s.Spans[1].DurNs != 3_000_000 || s.Spans[1].Note != "round=1 plane=0" {
		t.Fatalf("explicit-duration span wrong: %+v", s.Spans[1])
	}

	// The nil trace accepts every call and reports zero values.
	var nilTr *Trace
	nilTr.Span("x", t0, "")
	nilTr.Fold("x", t0, time.Millisecond, "")
	nilTr.Ref()
	if nilTr.Release() {
		t.Fatal("nil Release must report false")
	}
	if nilTr.ID() != "" || nilTr.Name() != "" || nilTr.Duration() != 0 {
		t.Fatal("nil accessors must return zero values")
	}
}

// TestTraceRefcount checks the last Release wins and that a trace is
// kept in a ring at most once even when observed twice.
func TestTraceRefcount(t *testing.T) {
	tr := NewTrace("POST /send")
	tr.Ref() // one packet in flight
	tr.Ref() // another
	if tr.Release() {
		t.Fatal("first release is not last")
	}
	if tr.Release() {
		t.Fatal("second release is not last")
	}
	if !tr.Release() {
		t.Fatal("third release must be last")
	}
	ring := NewTraceRing(4, 0)
	ring.Observe(tr)
	ring.Observe(tr) // double delivery must not duplicate
	if got := ring.Len(); got != 1 {
		t.Fatalf("ring holds %d traces, want 1", got)
	}
	snap := ring.Snapshot()
	if snap.Seen != 1 || snap.Kept != 1 {
		t.Fatalf("seen/kept = %d/%d, want 1/1", snap.Seen, snap.Kept)
	}
}

// TestTraceRingThresholdAndOrder checks the slow filter and the
// newest-first bounded eviction order.
func TestTraceRingThresholdAndOrder(t *testing.T) {
	ring := NewTraceRing(2, time.Hour)
	fast := NewTrace("fast")
	ring.Observe(fast)
	if ring.Len() != 0 {
		t.Fatal("fast trace must be filtered by the slow threshold")
	}

	ring = NewTraceRing(2, 0)
	names := []string{"a", "b", "c"}
	for _, n := range names {
		ring.Observe(NewTrace(n))
	}
	snap := ring.Snapshot()
	if len(snap.Traces) != 2 {
		t.Fatalf("ring must stay bounded at 2, got %d", len(snap.Traces))
	}
	if snap.Traces[0].Name != "c" || snap.Traces[1].Name != "b" {
		t.Fatalf("want newest-first [c b], got [%s %s]", snap.Traces[0].Name, snap.Traces[1].Name)
	}
	if snap.Seen != 3 || snap.Kept != 3 {
		t.Fatalf("seen/kept = %d/%d, want 3/3", snap.Seen, snap.Kept)
	}
}

// TestTraceSpanCap checks span recording stays bounded and counts the
// overflow instead of growing without limit.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("big")
	t0 := time.Now()
	for i := 0; i < maxSpans+10; i++ {
		tr.Span("s", t0, "")
	}
	s := tr.Snapshot()
	if len(s.Spans) != maxSpans {
		t.Fatalf("spans must cap at %d, got %d", maxSpans, len(s.Spans))
	}
	if s.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", s.DroppedSpans)
	}
}

// TestTraceRingHandler checks /debug/traces serves the ring as JSON.
func TestTraceRingHandler(t *testing.T) {
	ring := NewTraceRing(4, 0)
	tr := NewTrace("GET /x")
	tr.Span("stage", time.Now(), "n")
	ring.Observe(tr)
	rec := httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap RingSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(snap.Traces) != 1 || snap.Traces[0].Name != "GET /x" || len(snap.Traces[0].Spans) != 1 {
		t.Fatalf("unexpected ring JSON: %+v", snap)
	}
	// An unfolded span keeps its pre-fold JSON shape.
	for _, field := range []string{`"count"`, `"sum_ns"`, `"max_ns"`} {
		if strings.Contains(rec.Body.String(), field) {
			t.Fatalf("unfolded span marshals %s:\n%s", field, rec.Body.String())
		}
	}
}

// TestTraceFold has 4 writers fold interleaved occurrences of three
// (stage, note) keys into one trace at once (run it under -race). Each
// key must end as one span whose count, sum, max, earliest start and
// latest end are exact, and that span must survive the span cap: a
// fold into an existing key is never dropped, a new key past the cap
// is.
func TestTraceFold(t *testing.T) {
	type key struct{ stage, note string }
	keys := []key{{"voq_wait", ""}, {"plane_transit", "plane 0"}, {"plane_transit", "plane 1"}}
	const writers, per = 4, 600
	occurrence := func(w, i int) (k key, off, d time.Duration) {
		return keys[(w+i)%len(keys)], time.Duration(1000 + 37*i + 5*w), time.Duration(10 + (7*i+13*w)%101)
	}
	tr := NewTrace("POST /send")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k, off, d := occurrence(w, i)
				tr.Fold(k.stage, tr.Start().Add(off), d, k.note)
			}
		}(w)
	}
	wg.Wait()

	want := map[key]Span{}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			k, off, d := occurrence(w, i)
			start, dn := off.Nanoseconds(), d.Nanoseconds()
			sp, ok := want[k]
			if !ok {
				sp = Span{Stage: k.stage, Note: k.note, StartNs: start, DurNs: dn}
			}
			end := max(sp.StartNs+sp.DurNs, start+dn)
			sp.StartNs = min(sp.StartNs, start)
			sp.DurNs = end - sp.StartNs
			sp.Count++
			sp.SumNs += dn
			sp.MaxNs = max(sp.MaxNs, dn)
			want[k] = sp
		}
	}
	s := tr.Snapshot()
	if len(s.Spans) != len(keys) || s.DroppedSpans != 0 {
		t.Fatalf("%d folds over %d keys left %d spans (%d dropped), want %d: %+v",
			writers*per, len(keys), len(s.Spans), s.DroppedSpans, len(keys), s.Spans)
	}
	for _, sp := range s.Spans {
		if w := want[key{sp.Stage, sp.Note}]; sp != w {
			t.Errorf("folded span %+v, want %+v", sp, w)
		}
	}
	raw, err := json.Marshal(s.Spans[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"count":`, `"sum_ns":`, `"max_ns":`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("folded span JSON lacks %s: %s", field, raw)
		}
	}

	full := NewTrace("full")
	t0 := full.Start()
	full.Fold("voq_wait", t0, time.Microsecond, "")
	for i := 1; i < maxSpans; i++ {
		full.SpanDur("round", t0, 0, "")
	}
	full.Fold("voq_wait", t0.Add(2*time.Microsecond), 3*time.Microsecond, "")
	full.Fold("lost", t0, 0, "no healthy plane")
	s = full.Snapshot()
	if s.DroppedSpans != 1 {
		t.Fatalf("at the cap: %d spans dropped, want 1 (the new key only)", s.DroppedSpans)
	}
	if got, w := s.Spans[0], (Span{Stage: "voq_wait", StartNs: 0, DurNs: 5000, Count: 2, SumNs: 4000, MaxNs: 3000}); got != w {
		t.Fatalf("fold into an existing key at the cap: got %+v, want %+v", got, w)
	}
}
