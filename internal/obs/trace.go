package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded stage of a trace: what happened, when it
// started relative to the trace start, and how long it took.
//
// A folded span (see Fold) stands for Count occurrences of one stage:
// StartNs and DurNs then cover the earliest start to the latest end,
// and SumNs and MaxNs total and bound the occurrences' own durations.
// Count is 0 on a span recorded by Span or SpanDur, and the three
// fields are omitted from its JSON.
type Span struct {
	Stage   string `json:"stage"`
	StartNs int64  `json:"start_ns"` // offset from the trace start
	DurNs   int64  `json:"dur_ns"`
	Note    string `json:"note,omitempty"`
	Count   int64  `json:"count,omitempty"`
	SumNs   int64  `json:"sum_ns,omitempty"`
	MaxNs   int64  `json:"max_ns,omitempty"`
}

// maxSpans bounds a single trace's span list; a collective at N=4096
// records one span per round and still fits. Extra spans are counted,
// not stored.
const maxSpans = 8192

// traceSeq numbers traces within the process; the ID combines it with
// the trace's start time so IDs are unique across restarts too.
var traceSeq atomic.Uint64

// Trace reconstructs one request's journey through the pipeline. A
// trace is created at the request boundary, carried by context, and
// annotated with spans by each stage it passes through. All methods
// are safe for concurrent use and are no-ops on a nil *Trace, so
// instrumentation points pay only a nil check for untraced requests.
//
// A trace is reference-counted: it starts with one reference (the
// request handler) and gains one per asynchronous continuation — e.g.
// each packet a /send request admits into the fabric. Whoever drops
// the last reference (Release returning true) owns delivering the
// trace to a TraceRing.
type Trace struct {
	id    uint64
	name  string
	start time.Time
	refs  atomic.Int64
	obsd  atomic.Bool // already delivered to a ring

	mu      sync.Mutex
	spans   []Span
	dropped int
	endNs   int64 // total duration, 0 until finished
}

// NewTrace starts a trace named after the request it follows, holding
// one reference.
func NewTrace(name string) *Trace {
	t := &Trace{id: traceSeq.Add(1), name: name, start: time.Now()}
	t.refs.Store(1)
	return t
}

// ID returns the trace identifier, unique within the process run.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%x-%04x", t.start.UnixNano(), t.id)
}

// Name returns the trace's request name ("" on nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Start returns the trace's start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span records one completed stage that began at start and ends now.
func (t *Trace) Span(stage string, start time.Time, note string) {
	if t == nil {
		return
	}
	t.SpanDur(stage, start, time.Since(start), note)
}

// SpanDur records one completed stage with an explicit duration — for
// stages whose end was captured before the recording point.
func (t *Trace) SpanDur(stage string, start time.Time, d time.Duration, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{
			Stage:   stage,
			StartNs: start.Sub(t.start).Nanoseconds(),
			DurNs:   d.Nanoseconds(),
			Note:    note,
		})
	}
	t.mu.Unlock()
}

// Fold records one occurrence of a fan-out stage — one of many packets
// a request put in flight — into the trace's single span for (stage,
// note), so the trace's size follows its stages, not its packet count.
// A fold into an existing span is never dropped, whatever the span
// count.
func (t *Trace) Fold(stage string, start time.Time, d time.Duration, note string) {
	if t == nil {
		return
	}
	s, dn := start.Sub(t.start).Nanoseconds(), d.Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.Count == 0 || sp.Stage != stage || sp.Note != note {
			continue
		}
		end := max(sp.StartNs+sp.DurNs, s+dn)
		sp.StartNs = min(sp.StartNs, s)
		sp.DurNs = end - sp.StartNs
		sp.Count++
		sp.SumNs += dn
		sp.MaxNs = max(sp.MaxNs, dn)
		return
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Stage: stage, StartNs: s, DurNs: dn, Note: note, Count: 1, SumNs: dn, MaxNs: dn})
}

// Ref adds one reference for an asynchronous continuation of the
// request (a packet in flight, a background round).
func (t *Trace) Ref() {
	if t == nil {
		return
	}
	t.refs.Add(1)
}

// Release drops one reference and reports whether it was the last —
// the signal that the holder should hand the trace to a TraceRing.
// Release on a nil trace reports false.
func (t *Trace) Release() bool {
	if t == nil {
		return false
	}
	return t.refs.Add(-1) == 0
}

// finish pins the trace's total duration the first time it is called.
func (t *Trace) finish() {
	t.mu.Lock()
	if t.endNs == 0 {
		t.endNs = time.Since(t.start).Nanoseconds()
	}
	t.mu.Unlock()
}

// Duration returns the trace's total duration: the pinned end-to-end
// time once finished, the running age otherwise.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	ns := t.endNs
	t.mu.Unlock()
	if ns == 0 {
		return time.Since(t.start)
	}
	return time.Duration(ns)
}

// TraceSnapshot is the JSON view of a finished trace.
type TraceSnapshot struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Start        string `json:"start"` // RFC3339Nano
	DurNs        int64  `json:"dur_ns"`
	Spans        []Span `json:"spans"`
	DroppedSpans int    `json:"dropped_spans,omitempty"`
}

// Snapshot copies the trace's current state.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	dropped := t.dropped
	endNs := t.endNs
	t.mu.Unlock()
	if endNs == 0 {
		endNs = time.Since(t.start).Nanoseconds()
	}
	return TraceSnapshot{
		ID:           t.ID(),
		Name:         t.name,
		Start:        t.start.Format(time.RFC3339Nano),
		DurNs:        endNs,
		Spans:        spans,
		DroppedSpans: dropped,
	}
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// With returns ctx carrying tr.
func With(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil — and every
// Trace method accepts nil, so callers never need to check.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// TraceRing keeps the most recent traces slower than a threshold in a
// bounded ring, for /debug/traces. All methods are safe for concurrent
// use.
type TraceRing struct {
	slow time.Duration
	mu   sync.Mutex
	buf  []*Trace
	next int
	seen atomic.Int64
	kept atomic.Int64
}

// NewTraceRing returns a ring holding up to capacity traces whose
// total duration is at least slow. slow <= 0 keeps every observed
// trace (useful in tests and low-traffic demos).
func NewTraceRing(capacity int, slow time.Duration) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{slow: slow, buf: make([]*Trace, 0, capacity)}
}

// Observe finishes tr (pinning its end-to-end duration) and keeps it
// if it qualifies as slow. Each trace is kept at most once; later
// Observe calls for the same trace are no-ops, so refcount races at
// the request boundary cannot duplicate entries. Nil traces are
// ignored.
func (r *TraceRing) Observe(tr *Trace) {
	if tr == nil {
		return
	}
	tr.finish()
	if !tr.obsd.CompareAndSwap(false, true) {
		return
	}
	r.seen.Add(1)
	if tr.Duration() < r.slow {
		return
	}
	r.kept.Add(1)
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, tr)
	} else {
		r.buf[r.next] = tr
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.mu.Unlock()
}

// Len returns the number of traces currently held.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// RingSnapshot is the JSON view of a TraceRing: totals plus the held
// traces, newest first.
type RingSnapshot struct {
	Seen   int64           `json:"seen"`
	Kept   int64           `json:"kept"`
	SlowNs int64           `json:"slow_threshold_ns"`
	Traces []TraceSnapshot `json:"traces"`
}

// Snapshot copies the ring's contents, newest first.
func (r *TraceRing) Snapshot() RingSnapshot {
	r.mu.Lock()
	held := make([]*Trace, 0, len(r.buf))
	// buf[next-1] is the most recently overwritten slot once the ring
	// has wrapped; before wrapping, the newest is the last appended.
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		held = append(held, r.buf[idx])
	}
	r.mu.Unlock()
	// Load kept before seen: Observe bumps seen before kept, so every
	// trace counted in this kept is already counted in the seen below.
	kept := r.kept.Load()
	s := RingSnapshot{
		Seen:   r.seen.Load(),
		Kept:   kept,
		SlowNs: r.slow.Nanoseconds(),
		Traces: make([]TraceSnapshot, len(held)),
	}
	for i, tr := range held {
		s.Traces[i] = tr.Snapshot()
	}
	return s
}

// Handler returns an http.Handler serving the ring as JSON — the
// /debug/traces endpoint.
func (r *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			// Body already streaming; nothing better than truncation.
			return
		}
	})
}
