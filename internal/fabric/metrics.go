package fabric

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// metrics aggregates the fabric-level counters and per-stage latency
// histograms. Per-plane counters live on the planes themselves; per-VOQ
// counters live under the voqSet mutex. Snapshot stitches all three
// views together; Register exports every series — including the
// per-plane engines — into one obs.Registry.
type metrics struct {
	accepted  atomic.Int64 // packets admitted into a VOQ
	rejected  atomic.Int64 // packets refused by tail drop or close
	delivered atomic.Int64 // packets verified at their output port
	lost      atomic.Int64 // accepted packets abandoned (no healthy plane at close)
	frames    atomic.Int64 // frames scheduled
	failovers atomic.Int64 // frames re-dispatched after a plane failure

	rounds         atomic.Int64 // collective rounds served via RouteRound
	roundFailovers atomic.Int64 // rounds served only after a plane failover

	// Multicast traffic. Accepted/delivered count logical fan-out
	// packets; copies count per-output deliveries, so copies/delivered
	// is the fabric's fan-out amplification.
	mcastAccepted  atomic.Int64 // multicast packets admitted
	mcastDelivered atomic.Int64 // multicast packets with every copy verified
	mcastCopies    atomic.Int64 // verified copies in frames
	mcastFrames    atomic.Int64 // frames carrying at least one multicast packet
	mcastRounds    atomic.Int64 // multicast collective rounds served

	// Per-stage latency histograms, mapping the paper's delay split
	// onto the packet path: queueing (VOQWait, plus EnqueueWait for the
	// backpressured slow path), scheduling (Match) and transmission
	// (PlaneRTT). The exactly-once check of a frame's outputs runs
	// inside the plane serve and is timed by the plane engine's Apply
	// histogram; rounds move no payload, so their engines time no
	// apply.
	VOQWait     obs.Histogram // packet enqueue -> extraction into a frame
	EnqueueWait obs.Histogram // time a Block-policy sender spent parked on a full ring
	Match       obs.Histogram // one matching extraction (buildFrame)
	PlaneRTT    obs.Histogram // plane round-trip: engine route of a frame or round

	// Size histograms (fed by ObserveValue, not durations): how many
	// real packets each scheduler→router handoff carried, and how many
	// delivery callbacks each frame completion coalesced.
	HandoffBatch obs.Histogram // real packets per frame handed to a router
	Coalesce     obs.Histogram // packets delivered per coalesced frame drain
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
	s := Snapshot{
		Accepted:  f.met.accepted.Load(),
		Rejected:  f.met.rejected.Load(),
		Delivered: f.met.delivered.Load(),
		Lost:      f.met.lost.Load(),
		Frames:    f.met.frames.Load(),
		Failovers: f.met.failovers.Load(),

		Rounds:         f.met.rounds.Load(),
		RoundFailovers: f.met.roundFailovers.Load(),

		Mcast: McastSnapshot{
			Accepted:  f.met.mcastAccepted.Load(),
			Delivered: f.met.mcastDelivered.Load(),
			Copies:    f.met.mcastCopies.Load(),
			Frames:    f.met.mcastFrames.Load(),
			Rounds:    f.met.mcastRounds.Load(),
		},

		Stages: StageSnapshot{
			VOQWait:     f.met.VOQWait.Snapshot(),
			EnqueueWait: f.met.EnqueueWait.Snapshot(),
			Match:       f.met.Match.Snapshot(),
			PlaneRTT:    f.met.PlaneRTT.Snapshot(),

			HandoffBatch: f.met.HandoffBatch.Snapshot(),
			Coalesce:     f.met.Coalesce.Snapshot(),
		},
	}
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

// Register exports the fabric into reg: fabric counters, queue and
// plane-health gauges, the per-stage latency histograms, and — labeled
// by plane — each plane's counters and its engine's full series.
// Values are read at scrape time from the same atomics the data path
// maintains, so registration adds nothing to the packet path.
func (f *Fabric[T]) Register(reg *obs.Registry) {
	m := &f.met
	reg.CounterFunc("benes_fabric_accepted_total", "Packets admitted into a VOQ.", nil, m.accepted.Load)
	reg.CounterFunc("benes_fabric_rejected_total", "Packets refused by tail drop or close.", nil, m.rejected.Load)
	reg.CounterFunc("benes_fabric_delivered_total", "Packets verified at their output port.", nil, m.delivered.Load)
	reg.CounterFunc("benes_fabric_lost_total", "Accepted packets abandoned (no healthy plane at close).", nil, m.lost.Load)
	reg.CounterFunc("benes_fabric_frames_total", "Frames scheduled.", nil, m.frames.Load)
	reg.CounterFunc("benes_fabric_failovers_total", "Frames re-dispatched after a plane failure.", nil, m.failovers.Load)
	reg.CounterFunc("benes_fabric_rounds_total", "Collective rounds served.", nil, m.rounds.Load)
	reg.CounterFunc("benes_fabric_round_failovers_total", "Rounds served only after a plane failover.", nil, m.roundFailovers.Load)
	reg.CounterFunc("benes_fabric_mcast_accepted_total", "Multicast packets admitted.", nil, m.mcastAccepted.Load)
	reg.CounterFunc("benes_fabric_mcast_delivered_total", "Multicast packets with every copy verified.", nil, m.mcastDelivered.Load)
	reg.CounterFunc("benes_fabric_mcast_copies_total", "Verified multicast copies.", nil, m.mcastCopies.Load)
	reg.CounterFunc("benes_fabric_mcast_frames_total", "Frames carrying at least one multicast packet.", nil, m.mcastFrames.Load)
	reg.CounterFunc("benes_fabric_mcast_rounds_total", "Multicast collective rounds served.", nil, m.mcastRounds.Load)
	reg.GaugeFunc("benes_fabric_voq_occupied", "Packets currently queued across all VOQs.", nil,
		func() float64 {
			total := int64(0)
			for _, sh := range f.shards {
				total += sh.occupancy()
			}
			return float64(total)
		})
	reg.GaugeFunc("benes_fabric_healthy_planes", "Planes currently in rotation.", nil, func() float64 {
		healthy := 0
		for _, p := range f.planes {
			if p.healthy.Load() {
				healthy++
			}
		}
		return float64(healthy)
	})
	reg.RegisterHistogram("benes_fabric_voq_wait_seconds", "Packet wait from VOQ enqueue to frame extraction.", nil, &m.VOQWait)
	reg.RegisterHistogram("benes_fabric_enqueue_wait_seconds", "Time Block-policy senders spent parked on a full VOQ ring.", nil, &m.EnqueueWait)
	reg.RegisterHistogram("benes_fabric_match_seconds", "Matching extraction (one scheduler tick).", nil, &m.Match)
	reg.RegisterHistogram("benes_fabric_plane_seconds", "Plane round-trip for one frame or round.", nil, &m.PlaneRTT)
	reg.RegisterSizeHistogram("benes_fabric_handoff_batch_size", "Real packets per frame handed from a scheduler to its router.", nil, &m.HandoffBatch)
	reg.RegisterSizeHistogram("benes_fabric_coalesce_size", "Packets delivered per coalesced frame drain.", nil, &m.Coalesce)
	for _, p := range f.planes {
		p := p
		labels := obs.Labels{{"plane", strconv.Itoa(p.id)}}
		reg.GaugeFunc("benes_fabric_plane_healthy", "1 when the plane is in rotation.", labels, func() float64 {
			if p.healthy.Load() {
				return 1
			}
			return 0
		})
		reg.CounterFunc("benes_fabric_plane_frames_total", "Frames this plane routed.", labels, p.frames.Load)
		reg.CounterFunc("benes_fabric_plane_packets_total", "Payload packets inside routed frames.", labels, p.packets.Load)
		reg.CounterFunc("benes_fabric_plane_rounds_total", "Collective rounds this plane routed.", labels, p.rounds.Load)
		reg.CounterFunc("benes_fabric_plane_failovers_total", "Frames or rounds this plane rejected or misrouted.", labels, p.failovers.Load)
		p.eng.Register(reg, labels)
	}
}
