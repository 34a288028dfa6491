// Command benesd is a demo routing server over the plan-caching engine
// of internal/engine and the packet-mode fabric of internal/fabric: it
// accepts whole-permutation requests and individual packets over HTTP,
// serves /route in the handler goroutine and packets through the
// multi-plane frame scheduler, and exposes metrics for both layers.
//
// Endpoints:
//
//	POST /route    {"dest":[...], "data":[...]} -> routed payload
//	               ("data" optional; defaults to the identity payload
//	               0..N-1, so the response shows where each input went).
//	               A body over 4096 + 64·N bytes gets 413, undecoded.
//	POST /send     {"src":3, "dst":9} or {"packets":[{"src":..,"dst":..},...]}
//	               -> per-packet accepted/rejected counts; packets ride
//	               the VOQ → frame scheduler → plane path
//	POST /multicast  {"map":[src per output, -1 idle]} or
//	               {"entries":[{"src":0,"dsts":[1,2,3]},...]} -> one
//	               whole-mapping copy-network round (classification,
//	               serving plane, cache hit); with "packet": true the
//	               entries instead ride the VOQ → frame scheduler path
//	               as fan-out packets (accepted/rejected counts)
//	POST /collective  {"op":"alltoall","data":[[...],...]} -> bulk
//	               data movement compiled into pipelined fabric rounds.
//	               Ops: alltoall, exchange (with "dests"), transpose
//	               (with "rows"/"cols"), shuffle, bitreversal,
//	               broadcast / gather / scatter (with "root"),
//	               allgather, fanout (with "dests" as subscriber lists).
//	               "deadline_ms" arms deadline-aware admission (503 on
//	               reject); "stream": true switches the response to
//	               NDJSON progress lines ending in a "done" record
//	GET  /collective/stats  collective-layer snapshot (rounds,
//	               self-route ratio, per-plane occupancy, per-op counts)
//	GET  /stats    full engine metrics snapshot (hits, misses,
//	               fallbacks, per-stage latency histograms)
//	GET  /fabric/stats  fabric snapshot (accepted/rejected/delivered,
//	               frame fill, per-plane engines, per-VOQ counters)
//	GET  /healthz  pure liveness probe ("ok" while the process is up)
//	GET  /readyz   readiness probe: 503 with reasons when no plane is
//	               healthy or the VOQs are saturated; 200 with
//	               "degraded" reasons on partial trouble
//	GET  /metrics  Prometheus text-format exposition: counters, gauges,
//	               and per-stage latency histograms (engine plan/apply,
//	               fabric VOQ wait/match/plane/verify,
//	               collective round/end-to-end) for every layer, plus
//	               per-stage benes_switch_* flight-recorder series
//	GET  /debug/heatmap  gate-level utilization heatmap: per-switch
//	               traversal/flip/forced/fault/broadcast counters for
//	               all 2n-1 stages x N/2 switches, engine and per-plane,
//	               plus the n-stage copy-ladder sections fed by
//	               multicast traffic, with per-stage occupancy/skew
//	               summaries, JSON
//	GET  /debug/history?window=30s  rate-over-time report from the
//	               snapshot ring: counter deltas/rates and windowed
//	               histogram p50/p99 over the requested window
//	GET  /debug/traces  recent slow request traces, JSON: per-stage
//	               spans, one per /collective round, and for /send and
//	               /multicast packets one span per stage (and plane)
//	               folding every packet's count, sum and max
//	POST /debug/faults  {"plane":1,"faults":[{"stage":3,"switch":5,
//	               "stuck_crossed":true}]} freezes switches of one
//	               fabric plane in their stuck states; the plane leaves
//	               rotation before the faults take effect and still
//	               answers probes. An empty fault list repairs it
//	POST /debug/diagnose  {"plane":1,"budget":12,"max_faults":1,
//	               "seed":7} runs a fault-localization session against
//	               the plane: crafted probe permutations, contradiction-
//	               based elimination, ranked posterior over stuck-switch
//	               hypotheses, JSON report
//	GET  /debug/journal?from=&to=  the hash-chained traffic journal's
//	               retained record window as NDJSON, one record per
//	               line (requires -journal); a frame line carries its
//	               packets as srcs/dsts pairs, srcs[k] → dsts[k]
//	GET  /debug/journal/verify?from=&to=  walk the chain over the
//	               window and report the verdict: records verified,
//	               first broken sequence number, head digest
//	POST /debug/replay  {"from":1,"to":0} deterministically re-executes
//	               the journal window (0 = retained bound) against a
//	               fresh network and reports every divergence between
//	               the recorded deliveries and the re-execution
//	GET  /debug/pprof/  standard net/http/pprof profiles
//
// benesd shuts down gracefully: SIGINT/SIGTERM stops accepting
// connections, drains in-flight requests via http.Server.Shutdown with
// a timeout, then closes the fabric (delivering everything queued) and
// the engine.
//
// Example:
//
//	benesd -n 10 -planes 4 &
//	curl -s localhost:8080/route -d '{"dest":[1,0,3,2,...]}'
//	curl -s localhost:8080/send -d '{"src":0,"dst":511}'
//	curl -s localhost:8080/fabric/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/perm"
)

type server struct {
	eng *engine.Engine[int]
	fab *fabric.Fabric[int]
	col *collective.Service[int]
	obs *obsState
	log *slog.Logger
	// jrn is the hash-chained traffic journal behind /debug/journal and
	// /debug/replay; nil when benesd runs without -journal.
	jrn *journal.Journal
	// identity is the payload 0..N-1 of a /route request without data,
	// shared by every such request and never written.
	identity []int
	// routeLimit is routeBodyLimit(N), the longest /route body served.
	routeLimit int
}

// obsState bundles the process-wide observability surface: the metric
// registry behind /metrics, the slow-trace ring behind /debug/traces,
// the snapshot time-series ring behind /debug/history, and the
// process's structured logger.
type obsState struct {
	reg  *obs.Registry
	ring *obs.TraceRing
	hist *obs.History
	diag *diagnose.Metrics
	log  *slog.Logger
}

// newObsState builds one registry over all three layers plus the
// bounded history ring sampling it (histCap samples every
// histInterval; Start it to begin sampling). The fabric's deliver
// callback must release packet traces into the same ring (see
// newTracedDeliver) so /send traces surface once their last packet is
// verified at its output port. A nil journal skips the benes_journal_*
// series; a nil logger logs to stderr.
func newObsState(eng *engine.Engine[int], fab *fabric.Fabric[int], col *collective.Service[int], jr *journal.Journal, ring *obs.TraceRing,
	histCap int, histInterval time.Duration, logger *slog.Logger) *obsState {
	reg := obs.NewRegistry()
	eng.Register(reg, nil)
	fab.Register(reg)
	col.Register(reg)
	if jr != nil {
		jr.Metrics().Register(reg)
	}
	diag := &diagnose.Metrics{}
	diag.Register(reg)
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return &obsState{reg: reg, ring: ring, hist: obs.NewHistory(reg, histCap, histInterval), diag: diag, log: logger}
}

// newTracedDeliver returns the fabric deliver callback: each verified
// packet drops its trace reference, and whoever drops the last one
// hands the finished trace to the ring.
func newTracedDeliver(ring *obs.TraceRing) func(fabric.Packet[int]) {
	return func(p fabric.Packet[int]) {
		if p.Trace.Release() {
			ring.Observe(p.Trace)
		}
	}
}

// traced wraps a handler with request tracing: a fresh trace rides the
// request context, stages append spans as the request moves through
// the pipeline, and the handler's reference is dropped on return — if
// no packet is still in flight holding one, the trace lands in the
// ring right away; otherwise the fabric's deliver callback delivers it
// when the last packet does.
func (s *server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(name)
		start := time.Now()
		h(w, r.WithContext(obs.With(r.Context(), tr)))
		// The trace_id here is the same ID /debug/traces serves, so a
		// log line joins to its per-stage span breakdown.
		s.log.Info("request served", "path", name, "trace_id", tr.ID(), "dur", time.Since(start))
		if tr.Release() {
			s.obs.ring.Observe(tr)
		}
	}
}

type routeRequest struct {
	Dest intList `json:"dest"`
	Data intList `json:"data,omitempty"`
}

type routeResponse struct {
	Data     []int  `json:"data"`
	Kind     string `json:"kind"`
	CacheHit bool   `json:"cache_hit"`
}

type sendPacket struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

type sendRequest struct {
	// Either a single packet inline...
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`
	// ...or a batch.
	Packets []sendPacket `json:"packets,omitempty"`
}

type sendResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
}

// handleSend offers packets to the fabric. Backpressure rejections are
// reported per packet: a fully rejected request gets 429, a mixed or
// fully accepted one 200. A malformed packet gets the whole batch a 400
// before any packet is admitted.
func (s *server) handleSend(w http.ResponseWriter, r *http.Request) {
	var req sendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	pkts := req.Packets
	if req.Src != nil || req.Dst != nil {
		if req.Src == nil || req.Dst == nil {
			s.httpError(w, http.StatusBadRequest, "single-packet send needs both src and dst")
			return
		}
		pkts = append(pkts, sendPacket{Src: *req.Src, Dst: *req.Dst})
	}
	if len(pkts) == 0 {
		s.httpError(w, http.StatusBadRequest, "no packets")
		return
	}
	if err := checkPackets(pkts, s.fab.N()); err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	accepted, rejected, code, ok := s.admit(w, r, len(pkts),
		func(int) int { return 1 },
		func(k int, tr *obs.Trace) error {
			return s.fab.Send(fabric.Packet[int]{Src: pkts[k].Src, Dst: pkts[k].Dst, Trace: tr})
		})
	if ok {
		s.writeJSON(w, code, sendResponse{Accepted: accepted, Rejected: rejected})
	}
}

// admit offers units 0..units-1 to the fabric in order, the admission
// loop of /send and packet-mode /multicast. Unit k carries copies(k)
// references to the request trace, taken before offer sends it: the
// fabric delivers, and the deliver callback releases, every copy
// separately. A unit that backpressure or a closing fabric turns away
// counts as rejected and returns its references at once (never the
// last: the middleware still holds the handler's); any other error
// returns them and answers 400, and ok is false. Otherwise the admit
// span is folded into the trace and code is 429 when nothing was
// accepted, 200 else.
func (s *server) admit(w http.ResponseWriter, r *http.Request, units int, copies func(k int) int,
	offer func(k int, tr *obs.Trace) error) (accepted, rejected, code int, ok bool) {
	tr := obs.FromContext(r.Context())
	start := time.Now()
	for k := range units {
		c := copies(k)
		for range c {
			tr.Ref()
		}
		err := offer(k, tr)
		if err == nil {
			accepted++
			continue
		}
		for range c {
			tr.Release()
		}
		if err != fabric.ErrBackpressure && err != fabric.ErrClosed {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return 0, 0, 0, false
		}
		rejected++
	}
	tr.Span("admit", start, fmt.Sprintf("%d accepted, %d rejected", accepted, rejected))
	if accepted == 0 {
		return accepted, rejected, http.StatusTooManyRequests, true
	}
	return accepted, rejected, http.StatusOK, true
}

// checkPackets rejects a /send batch holding a packet outside [0, n),
// so a malformed packet never leaves the batch's valid prefix admitted.
func checkPackets(pkts []sendPacket, n int) error {
	for _, p := range pkts {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return fmt.Errorf("packet (%d -> %d) out of range [0,%d)", p.Src, p.Dst, n)
		}
	}
	return nil
}

// checkEntries is checkPackets for packet-mode /multicast: every entry
// needs its source and destinations in [0, n), at least one
// destination, and none listed twice.
func checkEntries(entries []multicastEntry, n int) error {
	last := make([]int, n) // last[d] = 1 + index of the last entry listing d
	for i, e := range entries {
		if e.Src < 0 || e.Src >= n {
			return fmt.Errorf("source %d out of range [0,%d)", e.Src, n)
		}
		if len(e.Dsts) == 0 {
			return fmt.Errorf("entry from source %d has no destinations", e.Src)
		}
		for _, d := range e.Dsts {
			if d < 0 || d >= n {
				return fmt.Errorf("destination %d out of range [0,%d)", d, n)
			}
			if last[d] == i+1 {
				return fmt.Errorf("destination %d listed twice in the entry from source %d", d, e.Src)
			}
			last[d] = i + 1
		}
	}
	return nil
}

// multicastEntry is one fan-out unit: source port Src copied to every
// port in Dsts.
type multicastEntry struct {
	Src  int     `json:"src"`
	Dsts intList `json:"dsts"`
}

type multicastRequest struct {
	// Map is the output-major mapping: Map[out] names the source port
	// whose value lands at output out, -1 for outputs left idle.
	Map intList `json:"map,omitempty"`
	// Entries is the fan-out form, converted to a mapping (round mode)
	// or sent as individual fan-out packets (packet mode).
	Entries []multicastEntry `json:"entries,omitempty"`
	// Packet switches from one whole-mapping copy-network round to the
	// packet path: each entry rides the VOQ -> frame scheduler -> plane
	// pipeline as a multicast packet.
	Packet bool `json:"packet,omitempty"`
}

type multicastResponse struct {
	// Round mode: the mapping's classification and the round's books.
	Class     string `json:"class,omitempty"`
	Sources   int    `json:"sources,omitempty"`
	Assigned  int    `json:"assigned,omitempty"`
	MaxFanout int    `json:"max_fanout,omitempty"`
	Plane     int    `json:"plane,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	// Packet mode: per-packet admission counts.
	Accepted int `json:"accepted,omitempty"`
	Rejected int `json:"rejected,omitempty"`
}

// handleMulticast serves fan-out traffic. Round mode (default) turns
// the request into one output-major mapping, classifies it, and routes
// it as a whole copy-network round with plane failover; packet mode
// offers each entry to the fabric as a multicast packet, reporting
// admission like /send (a malformed entry rejects the whole batch
// before any is admitted). Spec errors are 400s, full backpressure 429.
func (s *server) handleMulticast(w http.ResponseWriter, r *http.Request) {
	var req multicastRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	if req.Map != nil && req.Entries != nil {
		s.httpError(w, http.StatusBadRequest, "give either map or entries, not both")
		return
	}
	if req.Packet {
		if len(req.Entries) == 0 {
			s.httpError(w, http.StatusBadRequest, "packet mode needs entries")
			return
		}
		if err := checkEntries(req.Entries, s.fab.N()); err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		accepted, rejected, code, ok := s.admit(w, r, len(req.Entries),
			func(k int) int { return len(req.Entries[k].Dsts) },
			func(k int, tr *obs.Trace) error {
				e := req.Entries[k]
				return s.fab.SendMulticast(fabric.MulticastPacket[int]{Src: e.Src, Dsts: e.Dsts, Payload: e.Src, Trace: tr})
			})
		if ok {
			s.writeJSON(w, code, multicastResponse{Accepted: accepted, Rejected: rejected})
		}
		return
	}
	m := req.Map
	if m == nil {
		n := s.fab.N()
		m = make([]int, n)
		for i := range m {
			m[i] = fabric.Idle
		}
		for _, e := range req.Entries {
			if e.Src < 0 || e.Src >= n {
				s.httpError(w, http.StatusBadRequest, fmt.Sprintf("source %d out of range [0,%d)", e.Src, n))
				return
			}
			for _, d := range e.Dsts {
				if d < 0 || d >= n {
					s.httpError(w, http.StatusBadRequest, fmt.Sprintf("destination %d out of range [0,%d)", d, n))
					return
				}
				if m[d] != fabric.Idle {
					s.httpError(w, http.StatusBadRequest, fmt.Sprintf("output %d claimed twice", d))
					return
				}
				m[d] = e.Src
			}
		}
	}
	cls := perm.ClassifyMapping(m)
	res, err := s.fab.RouteMulticastRound(m, 0)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, fabric.ErrClosed) || errors.Is(err, fabric.ErrPlaneDown) {
			code = http.StatusServiceUnavailable
		}
		s.httpError(w, code, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, multicastResponse{
		Class:     cls.Class.String(),
		Sources:   cls.Sources,
		Assigned:  cls.Assigned,
		MaxFanout: cls.MaxFanout,
		Plane:     res.Plane,
		CacheHit:  res.CacheHit,
	})
}

type collectiveRequest struct {
	Op   string    `json:"op"`
	Data []intList `json:"data"`
	// Root selects the root port for broadcast, gather, and scatter.
	Root int `json:"root,omitempty"`
	// Rows and Cols tile the ports for op "transpose".
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Dests is the per-port, per-chunk destination matrix for op
	// "exchange" (-1 = keep in place), or the per-source subscriber
	// lists for op "fanout".
	Dests []intList `json:"dests,omitempty"`
	// DeadlineMs arms deadline-aware admission: if the compiled
	// schedule's estimated time exceeds it, the request is rejected
	// with 503 before any round is routed.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Stream switches the response to NDJSON progress records.
	Stream bool `json:"stream,omitempty"`
}

type collectiveResponse struct {
	Done   bool                   `json:"done"`
	Result [][]int                `json:"result"`
	Stats  collective.HandleStats `json:"stats"`
}

// handleCollective submits one bulk operation to the collective layer.
// Spec errors (unknown op, shape mismatches, bad destinations) are
// 400s, admission rejects are 503s; the response is either the final
// result or — with "stream": true — NDJSON progress lines ending in a
// "done" record.
func (s *server) handleCollective(w http.ResponseWriter, r *http.Request) {
	var req collectiveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	data, dests := intRows(req.Data), intRows(req.Dests)
	var h *collective.Handle[int]
	var err error
	switch req.Op {
	case "alltoall":
		h, err = s.col.AllToAll(ctx, data)
	case "exchange":
		h, err = s.col.Exchange(ctx, dests, data)
	case "transpose":
		h, err = s.col.Transpose(ctx, req.Rows, req.Cols, data)
	case "shuffle":
		h, err = s.col.Shuffle(ctx, data)
	case "bitreversal":
		h, err = s.col.BitReversal(ctx, data)
	case "broadcast":
		h, err = s.col.Broadcast(ctx, req.Root, data)
	case "gather":
		h, err = s.col.Gather(ctx, req.Root, data)
	case "scatter":
		h, err = s.col.Scatter(ctx, req.Root, data)
	case "allgather":
		h, err = s.col.AllGather(ctx, data)
	case "fanout":
		h, err = s.col.FanOut(ctx, dests, data)
	default:
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown collective op %q", req.Op))
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, collective.ErrDeadline) {
			code = http.StatusServiceUnavailable
		}
		s.httpError(w, code, err.Error())
		return
	}
	if req.Stream {
		s.streamCollective(w, h)
		return
	}
	result, err := h.Wait()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, collectiveResponse{Done: true, Result: result, Stats: h.Stats()})
}

// streamCollective writes NDJSON progress records while the collective
// runs, then a final record carrying the result (or the error).
func (s *server) streamCollective(w http.ResponseWriter, h *collective.Handle[int]) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		if err := enc.Encode(v); err != nil {
			s.log.Warn("streaming collective progress", "err", err)
		}
		if fl != nil {
			fl.Flush()
		}
	}
	progress := func() map[string]int {
		completed, total := h.Progress()
		return map[string]int{"completed": completed, "total": total}
	}
	emit(progress())
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-h.Done():
			result, err := h.Wait()
			if err != nil {
				emit(map[string]any{"done": true, "error": err.Error()})
				return
			}
			emit(collectiveResponse{Done: true, Result: result, Stats: h.Stats()})
			return
		case <-tick.C:
			emit(progress())
		}
	}
}

func (s *server) handleCollectiveStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.col.Stats())
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *server) handleFabricStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.fab.Stats())
}

// readiness is the /readyz body: whether the process should receive
// traffic, plus every degradation the probe noticed (a degraded
// process can still be ready — e.g. one failed plane out of four).
type readiness struct {
	Ready    bool     `json:"ready"`
	Degraded []string `json:"degraded,omitempty"`
}

// computeReadiness derives the /readyz verdict from live signals:
// plane rotation and VOQ occupancy. Not ready when no plane can serve
// or the VOQs are full (every Send would drop or block);
// degraded-but-ready when any plane is out of rotation or the VOQs
// cross half full.
func computeReadiness(h fabric.Health) readiness {
	r := readiness{Ready: true}
	switch {
	case h.PlanesHealthy == 0:
		r.Ready = false
		r.Degraded = append(r.Degraded, "no healthy planes")
	case h.PlanesHealthy < h.PlanesTotal:
		r.Degraded = append(r.Degraded, fmt.Sprintf("%d/%d planes healthy", h.PlanesHealthy, h.PlanesTotal))
	}
	switch {
	case h.VOQOccupied >= h.VOQCapacity:
		r.Ready = false
		r.Degraded = append(r.Degraded, "VOQs saturated")
	case 2*h.VOQOccupied >= h.VOQCapacity:
		r.Degraded = append(r.Degraded, fmt.Sprintf("VOQs %d/%d occupied", h.VOQOccupied, h.VOQCapacity))
	}
	return r
}

// handleReadyz is the readiness probe: 200 while the fabric can absorb
// traffic, 503 once it cannot. /healthz stays a pure liveness check —
// the process is up — so an orchestrator restarts on /healthz failures
// but only sheds traffic on /readyz ones.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r := computeReadiness(s.fab.Health())
	if s.jrn != nil {
		// Journal trouble degrades but never sheds traffic: the data path
		// is fine, only the audit trail has holes.
		r.Degraded = append(r.Degraded, journalDegradations(s.jrn.Dropped(), s.jrn.SpillBacklog())...)
	}
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, r)
}

// heatmapStage is one stage row of the /debug/heatmap response: the
// per-switch counter vectors plus the stage's occupancy/skew summary.
type heatmapStage struct {
	Stage      int     `json:"stage"`
	ControlBit int     `json:"control_bit"`
	Traversed  []int64 `json:"traversed"`
	Flips      []int64 `json:"flips"`
	Forced     []int64 `json:"forced"`
	FaultHits  []int64 `json:"fault_hits"`
	// Bcast counts transitions into or out of a broadcast (fan-out)
	// switch state — always zero on the binary B(n) stages, live on
	// the copy-ladder stages.
	Bcast   []int64          `json:"bcast_flips"`
	Summary obs.StageSummary `json:"summary"`
}

type heatmapPlane struct {
	Plane  int            `json:"plane"`
	Stages []heatmapStage `json:"stages"`
	// Ladder is the plane's copy-ladder section (multicast frames
	// only); omitted when the plane has served none or recording is
	// off.
	Ladder []heatmapStage `json:"ladder,omitempty"`
}

type heatmapResponse struct {
	N                int `json:"n"`
	Stages           int `json:"stages"`
	SwitchesPerStage int `json:"switches_per_stage"`
	// LadderStages is the copy ladder's depth (log2 N): the fan-out
	// stages multicast traffic traverses between the two B(n) passes.
	LadderStages int `json:"ladder_stages"`
	// Engine is the /route path's recorder; EngineLadder the engine's
	// copy-ladder section; Planes are the fabric's, one per switching
	// plane. Each is omitted when its recorder is disabled.
	Engine       []heatmapStage `json:"engine,omitempty"`
	EngineLadder []heatmapStage `json:"engine_ladder,omitempty"`
	Planes       []heatmapPlane `json:"planes,omitempty"`
}

// heatmapStages renders one recorder snapshot as stage rows. bit maps
// a stage index to the address bit its switches decide: the B(n)
// wiring's control bit for the Benes recorders, n-1-j for ladder stage
// j (the copy ladder splits on address bits MSB-first).
func heatmapStages(rec *netsim.Recorder, bit func(int) int) []heatmapStage {
	snap := rec.Snapshot()
	out := make([]heatmapStage, snap.Stages)
	for st := 0; st < snap.Stages; st++ {
		out[st] = heatmapStage{
			Stage:      st,
			ControlBit: bit(st),
			Traversed:  snap.Counts[st].Traversed,
			Flips:      snap.Counts[st].Flips,
			Forced:     snap.Counts[st].Forced,
			FaultHits:  snap.Counts[st].FaultHits,
			Bcast:      snap.Counts[st].Bcast,
			Summary:    obs.SummarizeStage(snap.Counts[st].Traversed),
		}
	}
	return out
}

// handleHeatmap serves the full gate-level utilization view: all 2n-1
// stages by N/2 switches plus the n copy-ladder stages, for the engine
// and for every fabric plane.
func (s *server) handleHeatmap(w http.ResponseWriter, _ *http.Request) {
	net := s.eng.Network()
	logN := net.Stages()/2 + 1
	benesBit := net.ControlBit
	ladderBit := func(st int) int { return logN - 1 - st }
	resp := heatmapResponse{
		N:                net.N(),
		Stages:           net.Stages(),
		SwitchesPerStage: net.SwitchesPerStage(),
		LadderStages:     logN,
	}
	if rec := s.eng.Recorder(); rec != nil {
		resp.Engine = heatmapStages(rec, benesBit)
	}
	if rec := s.eng.LadderRecorder(); rec != nil {
		resp.EngineLadder = heatmapStages(rec, ladderBit)
	}
	for id := 0; id < s.fab.Planes(); id++ {
		rec := s.fab.PlaneRecorder(id)
		if rec == nil {
			continue
		}
		hp := heatmapPlane{Plane: id, Stages: heatmapStages(rec, benesBit)}
		if lad := s.fab.PlaneLadderRecorder(id); lad != nil {
			hp.Ladder = heatmapStages(lad, ladderBit)
		}
		resp.Planes = append(resp.Planes, hp)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// faultSpec is the wire form of one stuck switch.
type faultSpec struct {
	Stage        int  `json:"stage"`
	Switch       int  `json:"switch"`
	StuckCrossed bool `json:"stuck_crossed"`
}

type faultsRequest struct {
	Plane int `json:"plane"`
	// Faults freezes the listed switches; an empty (or omitted) list
	// repairs the plane and returns it to rotation.
	Faults []faultSpec `json:"faults,omitempty"`
}

type faultsResponse struct {
	Plane   int  `json:"plane"`
	Faults  int  `json:"faults"`
	Healthy bool `json:"healthy"`
}

// handleDebugFaults injects (or clears) stuck-switch faults on one
// fabric plane. The damaged plane leaves rotation immediately — flows
// rehash to the survivors — but keeps answering /debug/diagnose
// probes. Bad plane IDs and out-of-range switch coordinates are 400s.
func (s *server) handleDebugFaults(w http.ResponseWriter, r *http.Request) {
	var req faultsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	faults := make([]core.Fault, len(req.Faults))
	for i, f := range req.Faults {
		faults[i] = core.Fault{Stage: f.Stage, Switch: f.Switch, StuckCrossed: f.StuckCrossed}
	}
	if err := s.fab.InjectFaults(req.Plane, faults); err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	h := s.fab.Health()
	s.writeJSON(w, http.StatusOK, faultsResponse{
		Plane:   req.Plane,
		Faults:  len(faults),
		Healthy: len(faults) == 0 && h.PlanesHealthy > 0,
	})
}

type diagnoseRequest struct {
	Plane int `json:"plane"`
	// Budget caps the probes the session may issue (0 = the prover's
	// default, 2*logN + 2).
	Budget int `json:"budget,omitempty"`
	// MaxFaults is the hypothesis order: 1 (default) or 2.
	MaxFaults int `json:"max_faults,omitempty"`
	// Seed drives the deterministic probe pool, so a diagnosis can be
	// replayed exactly.
	Seed int64 `json:"seed,omitempty"`
}

type diagnoseResponse struct {
	Plane  int              `json:"plane"`
	Report *diagnose.Report `json:"report"`
}

// handleDebugDiagnose runs one fault-localization session against a
// fabric plane: crafted probe permutations go through the plane (live
// engine or core's fault model — no payload moves, no VOQ is touched),
// and the posterior over stuck-switch hypotheses comes back ranked.
// Works on planes already out of rotation — that is the point.
func (s *server) handleDebugDiagnose(w http.ResponseWriter, r *http.Request) {
	var req diagnoseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	if req.Plane < 0 || req.Plane >= s.fab.Planes() {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("no plane %d", req.Plane))
		return
	}
	if req.Budget < 0 {
		s.httpError(w, http.StatusBadRequest, "budget must be non-negative")
		return
	}
	prover, err := diagnose.New(diagnose.Config{
		Net:       s.eng.Network(),
		MaxFaults: req.MaxFaults,
		Budget:    req.Budget,
		Seed:      req.Seed,
		Metrics:   s.obs.diag,
	})
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep, err := prover.Diagnose(diagnose.OracleFunc(func(d perm.Perm) (perm.Perm, error) {
		return s.fab.ProbePlane(req.Plane, d)
	}))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, engine.ErrClosed) || errors.Is(err, fabric.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		s.httpError(w, code, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, diagnoseResponse{Plane: req.Plane, Report: rep})
}

func (s *server) httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		s.log.Warn("encoding error response", "err", err)
	}
}

func (s *server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("encoding response", "err", err)
	}
}

// newMux wires the handlers; split from main so tests can mount the
// mux on an httptest server. o supplies the /metrics registry and the
// /debug/traces ring; /send and /collective run under the tracing
// middleware; jr (nil when journaling is off) backs /debug/journal and
// /debug/replay.
func newMux(eng *engine.Engine[int], fab *fabric.Fabric[int], col *collective.Service[int], o *obsState, jr *journal.Journal) *http.ServeMux {
	n := eng.Network().N()
	s := &server{eng: eng, fab: fab, col: col, obs: o, log: o.log, jrn: jr, identity: perm.Identity(n), routeLimit: routeBodyLimit(n)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /route", s.handleRoute)
	mux.HandleFunc("POST /send", s.traced("/send", s.handleSend))
	mux.HandleFunc("POST /multicast", s.traced("/multicast", s.handleMulticast))
	mux.HandleFunc("POST /collective", s.traced("/collective", s.handleCollective))
	mux.HandleFunc("GET /collective/stats", s.handleCollectiveStats)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /fabric/stats", s.handleFabricStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", o.reg.Handler())
	mux.Handle("GET /debug/traces", o.ring.Handler())
	mux.HandleFunc("GET /debug/heatmap", s.handleHeatmap)
	mux.HandleFunc("POST /debug/faults", s.traced("/debug/faults", s.handleDebugFaults))
	mux.HandleFunc("POST /debug/diagnose", s.traced("/debug/diagnose", s.handleDebugDiagnose))
	mux.HandleFunc("GET /debug/journal", s.handleDebugJournal)
	mux.HandleFunc("GET /debug/journal/verify", s.handleDebugJournalVerify)
	mux.HandleFunc("POST /debug/replay", s.traced("/debug/replay", s.handleDebugReplay))
	mux.Handle("GET /debug/history", o.hist.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection timeouts: a client that stops mid-header, or parks an idle
// keep-alive connection, loses the connection instead of holding it and
// its goroutine forever. Neither bounds a request once its header is
// in, so long collectives and streamed replies are unaffected.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// timeouts are serve's connection and shutdown bounds.
type timeouts struct {
	readHeader time.Duration // until a request's header is read
	idle       time.Duration // a keep-alive connection waiting for its next request
	shutdown   time.Duration // draining in-flight requests on shutdown
}

// serve runs the HTTP server on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, drain in-flight requests within
// to.shutdown, close the fabric (which delivers everything already
// accepted), the engine, and last the journal (nil OK) so the final
// deliveries are recorded and the spill queue drains. Split from main
// so tests can drive the full lifecycle without signals.
func serve(ctx context.Context, ln net.Listener, eng *engine.Engine[int], fab *fabric.Fabric[int], col *collective.Service[int], o *obsState, jr *journal.Journal, to timeouts) error {
	srv := &http.Server{
		Handler:           newMux(eng, fab, col, o, jr),
		ReadHeaderTimeout: to.readHeader,
		IdleTimeout:       to.idle,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), to.shutdown)
	defer cancel()
	err := srv.Shutdown(sctx)
	o.hist.Stop()
	fab.Close()
	eng.Close()
	if jr != nil {
		jr.Close()
	}
	if err != nil {
		return fmt.Errorf("benesd: shutdown: %w", err)
	}
	return nil
}

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		n      = flag.Int("n", 10, "network size exponent: B(n) routes N=2^n terminals")
		cache  = flag.Int("cache", engine.DefaultCacheCapacity, "plan cache capacity (plans)")
		planes = flag.Int("planes", 2, "parallel switching planes in the packet fabric")
		voq    = flag.Int("voq-depth", fabric.DefaultVOQDepth, "per-(input,output) virtual output queue bound")
		block  = flag.Bool("block", false, "block /send on full queues instead of tail-dropping")
		drain  = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		tring  = flag.Int("trace-ring", 64, "recent request traces kept for /debug/traces")
		tslow  = flag.Duration("trace-slow", 0, "keep only traces at least this slow (0 keeps all)")
		record = flag.Bool("record", true, "gate-level flight recorder (per-switch counters behind /debug/heatmap)")
		hcap   = flag.Int("history", 120, "snapshot samples kept for /debug/history")
		hival  = flag.Duration("history-interval", time.Second, "interval between /debug/history snapshot samples")
		jflag  = flag.Bool("journal", false, "hash-chained traffic journal (/debug/journal, /debug/replay)")
		jcap   = flag.Int("journal-cap", journal.DefaultCap, "journal memory ring capacity (records)")
		jspill = flag.String("journal-spill", "", "directory receiving evicted journal segments (empty = age out in memory)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(err error) {
		logger.Error("benesd: startup failed", "err", err)
		os.Exit(1)
	}

	var rec *netsim.Recorder
	if *record {
		rec = netsim.NewRecorder(core.New(*n), 1)
	}
	var jr *journal.Journal
	var jw *journal.Writer
	if *jflag {
		j, err := journal.New(journal.Config{Cap: *jcap, SpillDir: *jspill})
		if err != nil {
			fatal(err)
		}
		jr, jw = j, j.Writer()
	}
	eng, err := engine.New[int](engine.Config{
		LogN:          *n,
		CacheCapacity: *cache,
		Recorder:      rec,
		Journal:       jw,
	})
	if err != nil {
		fatal(err)
	}
	policy := fabric.DropNew
	if *block {
		policy = fabric.Block
	}
	ring := obs.NewTraceRing(*tring, *tslow)
	fab, err := fabric.New[int](fabric.Config{
		LogN:     *n,
		Planes:   *planes,
		VOQDepth: *voq,
		Policy:   policy,
		Record:   *record,
		Journal:  jw,
	}, newTracedDeliver(ring))
	if err != nil {
		fatal(err)
	}
	if jr != nil {
		// Checkpoints snapshot both layers: the fabric's packet books and
		// per-plane recorder digests, plus the engine's /route counters.
		jr.SetCheckpointSource(func() journal.Checkpoint {
			cp := fab.JournalCheckpoint()
			st := eng.Stats()
			cp.EngineRequests = uint64(st.Requests)
			cp.EngineHits = uint64(st.Hits)
			cp.EngineMisses = uint64(st.Misses)
			return cp
		})
	}
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, jr, ring, *hcap, *hival, logger)
	o.hist.Start()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("benesd: serving", "log_n", *n, "terminals", eng.Network().N(), "planes", fab.Planes(),
		"addr", *addr, "record", *record, "journal", *jflag)
	to := timeouts{readHeader: readHeaderTimeout, idle: idleTimeout, shutdown: *drain}
	if err := serve(ctx, ln, eng, fab, col, o, jr, to); err != nil {
		fatal(err)
	}
	logger.Info("benesd: drained and stopped")
}
