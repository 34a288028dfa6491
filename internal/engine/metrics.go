package engine

import (
	"strconv"

	"repro/internal/obs"
)

// Histogram is the shared lock-free latency histogram of internal/obs.
// The alias keeps the engine's exported metrics API stable now that
// every layer records into one observability package.
type Histogram = obs.Histogram

// HistogramSnapshot is the point-in-time view of a Histogram.
type HistogramSnapshot = obs.HistogramSnapshot

// BucketCount is one non-empty histogram bucket.
type BucketCount = obs.BucketCount

// metrics aggregates everything observable about a running engine:
// plan-cache traffic and per-stage latency. All fields are updated
// atomically; a metrics value must not be copied.
type metrics struct {
	requests    obs.Counter // vectors accepted by Route
	hits        obs.Counter // plan served from cache
	misses      obs.Counter // plan had to be computed
	fallbacks   obs.Counter // misses outside F(n) that ran the looping algorithm
	errors      obs.Counter // requests rejected (bad length, invalid permutation, closed)
	evictions   obs.Counter // plans displaced from the LRU cache
	collisions  obs.Counter // lookups whose hash matched a plan for a different permutation
	frames      obs.Counter // frames served synchronously via FrameServer.Serve
	mcasts      obs.Counter // multicast mappings served via RouteMulticast
	mcastFrames obs.Counter // mapping frames served via McastFrameServer.Serve
	mcastCopies obs.Counter // output copies delivered by multicast plans
	probes      obs.Counter // diagnostic passes served via ProbeRoute

	// Per-stage latency histograms.
	Plan  Histogram // plan acquisition (cache lookup, plus setup on a miss)
	Apply Histogram // payload application (or states replay)

	// Multicast phase histograms: the copy-network compile split into
	// its distribute/permute B(n) setups and its ladder programming.
	McastDist Histogram // mcast_distribute: the two looping-algorithm setups
	McastCopy Histogram // mcast_copy: interval-splitting ladder compile
}

// Snapshot is the JSON export of an engine's metrics: a plain value an
// HTTP stats handler marshals directly.
type Snapshot struct {
	Requests    int64   `json:"requests"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Fallbacks   int64   `json:"fallbacks"`
	Errors      int64   `json:"errors"`
	Evictions   int64   `json:"evictions"`
	Collisions  int64   `json:"collision_misses"`
	Frames      int64   `json:"frames"`
	Mcasts      int64   `json:"mcasts"`
	McastFrames int64   `json:"mcast_frames"`
	McastCopies int64   `json:"mcast_copies"`
	Probes      int64   `json:"probes"`
	HitRate     float64 `json:"hit_rate"`
	PlansCached int     `json:"plans_cached"`

	Plan      HistogramSnapshot `json:"plan"`
	Apply     HistogramSnapshot `json:"apply"`
	McastDist HistogramSnapshot `json:"mcast_distribute"`
	McastCopy HistogramSnapshot `json:"mcast_copy"`
}

// Stats captures a complete metrics snapshot: every counter and
// histogram, plus the current plan-cache occupancy.
func (e *Engine[T]) Stats() Snapshot {
	m := e.met
	s := Snapshot{
		Requests:    m.requests.Value(),
		Hits:        m.hits.Value(),
		Misses:      m.misses.Value(),
		Fallbacks:   m.fallbacks.Value(),
		Errors:      m.errors.Value(),
		Evictions:   m.evictions.Value(),
		Collisions:  m.collisions.Value(),
		Frames:      m.frames.Value(),
		Mcasts:      m.mcasts.Value(),
		McastFrames: m.mcastFrames.Value(),
		McastCopies: m.mcastCopies.Value(),
		Probes:      m.probes.Value(),
		PlansCached: e.cache.len(),
		Plan:        m.Plan.Snapshot(),
		Apply:       m.Apply.Snapshot(),
		McastDist:   m.McastDist.Snapshot(),
		McastCopy:   m.McastCopy.Snapshot(),
	}
	if lookups := s.Hits + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(lookups)
	}
	return s
}

// Register exports the engine's counters, gauges, and per-stage
// latency histograms into reg under the benes_engine_* names, with
// labels distinguishing this engine from its siblings (e.g. one series
// per fabric plane). Counters and gauges are read live at scrape time
// from the same atomics the hot path maintains — registration adds no
// cost to the serving path.
func (e *Engine[T]) Register(reg *obs.Registry, labels obs.Labels) {
	m := e.met
	reg.CounterFunc("benes_engine_requests_total", "Vectors accepted by Route.", labels, m.requests.Value)
	reg.CounterFunc("benes_engine_plan_cache_hits_total", "Plans served from the cache.", labels, m.hits.Value)
	reg.CounterFunc("benes_engine_plan_cache_misses_total", "Plans computed fresh.", labels, m.misses.Value)
	reg.CounterFunc("benes_engine_loop_fallbacks_total", "Misses outside F(n) that ran the looping algorithm.", labels, m.fallbacks.Value)
	reg.CounterFunc("benes_engine_errors_total", "Requests rejected (bad length, invalid permutation, closed).", labels, m.errors.Value)
	reg.CounterFunc("benes_engine_plan_cache_evictions_total", "Plans displaced from the LRU cache.", labels, m.evictions.Value)
	reg.CounterFunc("benes_engine_plan_cache_collisions_total", "Lookups that collided with a plan for a different permutation.", labels, m.collisions.Value)
	reg.CounterFunc("benes_engine_frames_total", "Frames served synchronously via FrameServer.", labels, m.frames.Value)
	reg.CounterFunc("benes_engine_mcasts_total", "Multicast mappings served via RouteMulticast.", labels, m.mcasts.Value)
	reg.CounterFunc("benes_engine_mcast_frames_total", "Mapping frames served via McastFrameServer.", labels, m.mcastFrames.Value)
	reg.CounterFunc("benes_engine_mcast_copies_total", "Output copies delivered by multicast plans.", labels, m.mcastCopies.Value)
	reg.CounterFunc("benes_engine_probes_total", "Diagnostic passes served via ProbeRoute.", labels, m.probes.Value)
	reg.GaugeFunc("benes_engine_plans_cached", "Plans currently held by the cache.", labels, func() float64 { return float64(e.cache.len()) })
	reg.RegisterHistogram("benes_engine_plan_seconds", "Plan acquisition: cache lookup plus setup on a miss.", labels, &m.Plan)
	reg.RegisterHistogram("benes_engine_apply_seconds", "Payload application (or gate-level states replay).", labels, &m.Apply)
	reg.RegisterHistogram("benes_engine_mcast_distribute_seconds", "Multicast compile: distribute/permute B(n) looping setups.", labels, &m.McastDist)
	reg.RegisterHistogram("benes_engine_mcast_copy_seconds", "Multicast compile: interval-splitting copy-ladder programming.", labels, &m.McastCopy)

	// With a flight recorder attached, export one series per stage of
	// the gate-level counters (per-switch series would be N/2 times the
	// cardinality; the per-switch view stays on /debug/heatmap).
	rec := e.rec
	if rec == nil {
		return
	}
	for s := 0; s < rec.Stages(); s++ {
		stage := s
		sl := append(append(obs.Labels{}, labels...), [2]string{"stage", strconv.Itoa(stage)})
		reg.CounterFunc("benes_switch_traversals_total", "Destination tags that traversed the stage's switches.", sl,
			func() int64 { return rec.StageTotals(stage).Traversed })
		reg.CounterFunc("benes_switch_flips_total", "Switch state transitions between consecutively routed vectors.", sl,
			func() int64 { return rec.StageTotals(stage).Flips })
		reg.CounterFunc("benes_switch_forced_total", "Settings imposed by the omega bit rather than decided from tags.", sl,
			func() int64 { return rec.StageTotals(stage).Forced })
		reg.CounterFunc("benes_switch_fault_hits_total", "Vectors that demanded the opposite state from a stuck switch.", sl,
			func() int64 { return rec.StageTotals(stage).FaultHits })
		reg.GaugeFunc("benes_stage_skew", "Gini coefficient of the stage's per-switch traversal load.", sl,
			func() float64 { return obs.Gini(rec.TraversedRow(stage)) })
	}
}
