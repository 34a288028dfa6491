package fabric

import (
	"strconv"

	"repro/internal/obs"
)

// metrics aggregates the fabric-level counters and per-stage latency
// histograms, one series a field (see obs.Export), grouped as the
// Snapshot nests them. Per-plane counters live on the planes
// themselves; per-VOQ books live under the voqSet mutex. Stats
// stitches all three views together.
type metrics struct {
	Accepted  obs.Counter `metric:"benes_fabric_accepted_total" help:"Packets admitted into a VOQ."`
	Rejected  obs.Counter `metric:"benes_fabric_rejected_total" help:"Packets refused by tail drop or close."`
	Delivered obs.Counter `metric:"benes_fabric_delivered_total" help:"Packets verified at their output port."`
	Lost      obs.Counter `metric:"benes_fabric_lost_total" help:"Accepted packets abandoned (no healthy plane at close)."`
	Frames    obs.Counter `metric:"benes_fabric_frames_total" help:"Frames scheduled."`
	Failovers obs.Counter `metric:"benes_fabric_failovers_total" help:"Frames re-dispatched after a plane failure."`

	Rounds         obs.Counter `metric:"benes_fabric_rounds_total" help:"Collective rounds served."`
	RoundFailovers obs.Counter `metric:"benes_fabric_round_failovers_total" help:"Rounds served only after a plane failover."`

	// Multicast traffic. Accepted/delivered count logical fan-out
	// packets; copies count per-output deliveries, so copies/delivered
	// is the fabric's fan-out amplification.
	Mcast struct {
		Accepted  obs.Counter `metric:"benes_fabric_mcast_accepted_total" help:"Multicast packets admitted."`
		Delivered obs.Counter `metric:"benes_fabric_mcast_delivered_total" help:"Multicast packets with every copy verified."`
		Copies    obs.Counter `metric:"benes_fabric_mcast_copies_total" help:"Verified multicast copies."`
		Frames    obs.Counter `metric:"benes_fabric_mcast_frames_total" help:"Frames carrying at least one multicast packet."`
		Rounds    obs.Counter `metric:"benes_fabric_mcast_rounds_total" help:"Multicast collective rounds served."`
	}

	// Per-stage latency histograms, mapping the paper's delay split
	// onto the packet path: queueing (VOQWait, plus EnqueueWait for the
	// backpressured slow path), scheduling (Match) and transmission
	// (PlaneRTT). The exactly-once check of a frame's outputs runs
	// inside the plane serve and is timed by the plane engine's Apply
	// histogram; rounds move no payload, so their engines time no
	// apply.
	//
	// HandoffBatch and Coalesce are size histograms (fed by
	// ObserveValue, not durations): how many real packets each
	// scheduler→router handoff carried, and how many delivery
	// callbacks each frame completion coalesced.
	Stages struct {
		VOQWait      obs.Histogram `metric:"benes_fabric_voq_wait_seconds" help:"Packet wait from VOQ enqueue to frame extraction."`
		EnqueueWait  obs.Histogram `metric:"benes_fabric_enqueue_wait_seconds" help:"Time Block-policy senders spent parked on a full VOQ ring."`
		Match        obs.Histogram `metric:"benes_fabric_match_seconds" help:"Matching extraction (one scheduler tick)."`
		PlaneRTT     obs.Histogram `metric:"benes_fabric_plane_seconds" help:"Plane round-trip for one frame or round."`
		HandoffBatch obs.Histogram `metric:"benes_fabric_handoff_batch_size,size" help:"Real packets per frame handed from a scheduler to its router."`
		Coalesce     obs.Histogram `metric:"benes_fabric_coalesce_size,size" help:"Packets delivered per coalesced frame drain."`
	}
}

// McastSnapshot is the multicast slice of a fabric Snapshot.
// FanoutAmplification is Copies / Delivered — how many verified
// output copies each served multicast packet produced on average.
// All three packet counters cover frame traffic only; Rounds counts
// whole-mapping collective rounds, which carry no packets.
type McastSnapshot struct {
	Accepted            int64   `json:"accepted"`
	Delivered           int64   `json:"delivered"`
	Copies              int64   `json:"copies"`
	Frames              int64   `json:"frames"`
	Rounds              int64   `json:"rounds"`
	FanoutAmplification float64 `json:"fanout_amplification"`
}

// VOQInputCounters is one input port's ingress accounting.
type VOQInputCounters struct {
	Enqueued int64 `json:"enqueued"`
	Dropped  int64 `json:"dropped"`
	Occupied int64 `json:"occupied"`
	MaxDepth int64 `json:"max_depth"`
}

// VOQSnapshot summarizes the virtual output queues: the aggregate
// occupancy plus one counter block per input port.
type VOQSnapshot struct {
	Occupied int64              `json:"occupied"`
	PerInput []VOQInputCounters `json:"per_input"`
}

// StageSnapshot is the per-stage latency view of a fabric snapshot,
// plus the unitless batch-size distributions of the sharded hot path
// (HandoffBatch and Coalesce report raw sizes in the *Ns fields).
type StageSnapshot struct {
	VOQWait     obs.HistogramSnapshot `json:"voq_wait"`
	EnqueueWait obs.HistogramSnapshot `json:"enqueue_wait"`
	Match       obs.HistogramSnapshot `json:"match"`
	PlaneRTT    obs.HistogramSnapshot `json:"plane_rtt"`

	HandoffBatch obs.HistogramSnapshot `json:"handoff_batch"`
	Coalesce     obs.HistogramSnapshot `json:"coalesce"`
}

// Snapshot is a point-in-time, JSON-friendly view of a running fabric,
// in the same style as engine.Snapshot. Counters are read
// atomically but independently: a snapshot taken mid-flight may be a
// few packets out of phase between fields (e.g. Accepted vs Delivered),
// which is inherent to lock-free stitching and harmless for
// monitoring; each individual field is never torn.
type Snapshot struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
	Frames    int64 `json:"frames"`
	Failovers int64 `json:"failovers"`

	// Collective round traffic (RouteRound), which bypasses the
	// VOQ/frame path.
	Rounds         int64 `json:"rounds"`
	RoundFailovers int64 `json:"round_failovers"`

	// Multicast traffic: copy-network frames and rounds.
	Mcast McastSnapshot `json:"mcast"`

	// FrameFill is delivered packets per scheduled frame divided by N:
	// 1.0 means every frame was a full permutation of real packets,
	// small values mean the scheduler is padding mostly-idle frames.
	FrameFill float64 `json:"frame_fill"`

	Stages StageSnapshot   `json:"stages"`
	Planes []PlaneSnapshot `json:"planes"`
	VOQ    VOQSnapshot     `json:"voq"`
}

// Stats captures the full fabric snapshot: fabric counters, per-stage
// latency, per-plane engine snapshots, and per-VOQ counters.
func (f *Fabric[T]) Stats() Snapshot {
	var s Snapshot
	obs.Fill(&s, &f.met)
	if s.Frames > 0 {
		s.FrameFill = float64(s.Delivered) / float64(s.Frames) / float64(f.n)
	}
	if s.Mcast.Delivered > 0 {
		s.Mcast.FanoutAmplification = float64(s.Mcast.Copies) / float64(s.Mcast.Delivered)
	}
	s.Planes = make([]PlaneSnapshot, len(f.planes))
	for i, p := range f.planes {
		s.Planes[i] = p.snapshot()
	}
	// Per-input VOQ books, summed across the per-plane shards. MaxDepth
	// is the highest per-shard high-water mark, a conservative view of
	// the input's worst backlog.
	s.VOQ.PerInput = make([]VOQInputCounters, f.n)
	for _, sh := range f.shards {
		for i, c := range sh.snapshot() {
			p := &s.VOQ.PerInput[i]
			p.Enqueued += c.Enqueued
			p.Dropped += c.Dropped
			p.Occupied += c.Occupied
			if c.MaxDepth > p.MaxDepth {
				p.MaxDepth = c.MaxDepth
			}
		}
	}
	for _, c := range s.VOQ.PerInput {
		s.VOQ.Occupied += c.Occupied
	}
	return s
}

// Register exports the fabric into reg: fabric counters, the
// per-stage latency histograms, queue and plane-health gauges, and —
// labeled by plane — each plane's counters and its engine's full
// series. Values are read at scrape time from the same atomics the
// data path maintains, so registration adds nothing to the packet path.
func (f *Fabric[T]) Register(reg *obs.Registry) {
	reg.Export(&f.met, nil)
	reg.GaugeFunc("benes_fabric_voq_occupied", "Packets currently queued across all VOQs.", nil,
		func() float64 { return float64(f.Health().VOQOccupied) })
	reg.GaugeFunc("benes_fabric_healthy_planes", "Planes currently in rotation.", nil,
		func() float64 { return float64(f.Health().PlanesHealthy) })
	for _, p := range f.planes {
		labels := obs.Labels{{"plane", strconv.Itoa(p.id)}}
		reg.GaugeFunc("benes_fabric_plane_healthy", "1 when the plane is in rotation.", labels, func() float64 {
			if p.healthy.Load() {
				return 1
			}
			return 0
		})
		reg.Export(&p.counts, labels)
		p.eng.Register(reg, labels)
	}
}
