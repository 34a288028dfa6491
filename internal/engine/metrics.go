package engine

import (
	"strconv"

	"repro/internal/obs"
)

// metrics aggregates everything observable about a running engine:
// plan-cache traffic and per-stage latency, one series a field (see
// obs.Export). A metrics value must not be copied.
type metrics struct {
	Requests    obs.Counter `metric:"benes_engine_requests_total" help:"Vectors accepted by Route."`
	Hits        obs.Counter `metric:"benes_engine_plan_cache_hits_total" help:"Plans served from the cache."`
	Misses      obs.Counter `metric:"benes_engine_plan_cache_misses_total" help:"Plans computed fresh."`
	Fallbacks   obs.Counter `metric:"benes_engine_loop_fallbacks_total" help:"Misses outside F(n) that ran the looping algorithm."`
	Errors      obs.Counter `metric:"benes_engine_errors_total" help:"Requests rejected (bad length, invalid permutation, closed)."`
	Evictions   obs.Counter `metric:"benes_engine_plan_cache_evictions_total" help:"Plans displaced from the LRU cache."`
	Collisions  obs.Counter `metric:"benes_engine_plan_cache_collisions_total" help:"Lookups that collided with a plan for a different permutation."`
	Frames      obs.Counter `metric:"benes_engine_frames_total" help:"Frames served synchronously via FrameServer."`
	Mcasts      obs.Counter `metric:"benes_engine_mcasts_total" help:"Multicast mappings served via RouteMulticast."`
	McastFrames obs.Counter `metric:"benes_engine_mcast_frames_total" help:"Mapping frames served via McastFrameServer."`
	McastCopies obs.Counter `metric:"benes_engine_mcast_copies_total" help:"Output copies delivered by multicast plans."`
	Probes      obs.Counter `metric:"benes_engine_probes_total" help:"Diagnostic passes served via ProbeRoute."`

	// Per-stage latency histograms.
	Plan  obs.Histogram `metric:"benes_engine_plan_seconds" help:"Plan acquisition: cache lookup plus setup on a miss."`
	Apply obs.Histogram `metric:"benes_engine_apply_seconds" help:"Payload application (or gate-level states replay)."`

	// Multicast phase histograms: the copy-network compile split into
	// its distribute/permute B(n) setups and its ladder programming.
	McastDist obs.Histogram `metric:"benes_engine_mcast_distribute_seconds" help:"Multicast compile: distribute/permute B(n) looping setups."`
	McastCopy obs.Histogram `metric:"benes_engine_mcast_copy_seconds" help:"Multicast compile: interval-splitting copy-ladder programming."`
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

	Plan      obs.HistogramSnapshot `json:"plan"`
	Apply     obs.HistogramSnapshot `json:"apply"`
	McastDist obs.HistogramSnapshot `json:"mcast_distribute"`
	McastCopy obs.HistogramSnapshot `json:"mcast_copy"`
}

// Stats captures a complete metrics snapshot: every counter and
// histogram, plus the current plan-cache occupancy.
func (e *Engine[T]) Stats() Snapshot {
	s := Snapshot{PlansCached: e.cache.len()}
	obs.Fill(&s, e.met)
	if lookups := s.Hits + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(lookups)
	}
	return s
}

// Register exports the engine's series into reg under the
// benes_engine_* names, with labels distinguishing this engine from its
// siblings (e.g. one series per fabric plane): its metrics, plus the
// plan-cache gauge and the flight recorder's per-stage series computed
// at scrape time. Registration adds no cost to the serving path.
func (e *Engine[T]) Register(reg *obs.Registry, labels obs.Labels) {
	reg.Export(e.met, labels)
	reg.GaugeFunc("benes_engine_plans_cached", "Plans currently held by the cache.", labels, func() float64 { return float64(e.cache.len()) })

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
