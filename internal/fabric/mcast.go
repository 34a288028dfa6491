package fabric

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/mcast"
	"repro/internal/obs"
)

// MulticastPacket is one fan-out unit of traffic: deliver Payload from
// input port Src to every output port in Dsts, in one frame, through
// the copy network. Dsts is copied on Send, so the caller may reuse
// the slice. Trace follows the same ownership rules as Packet.Trace.
type MulticastPacket[T any] struct {
	Src     int
	Dsts    []int
	Payload T
	Trace   *obs.Trace
}

// mpayload is the queue payload a multicast packet travels as: its
// destination set and its data. The multicast ingress reuses the
// unicast VOQs' queue type with one queue per input, which implies the
// packet's source.
type mpayload[T any] struct {
	dsts []int
	data T
}

// SendMulticast offers one fan-out packet to the fabric. It returns
// nil when the packet is accepted — the fabric then delivers exactly
// one verified copy to every destination, all within a single frame —
// or ErrBackpressure / ErrClosed when it is not. The (Src, Dsts[0])
// flow is pinned to a plane exactly like a unicast flow, so a
// multicast stream keeps FIFO order with the unicast traffic sharing
// its head destination.
func (f *Fabric[T]) SendMulticast(p MulticastPacket[T]) error {
	if p.Src < 0 || p.Src >= f.n {
		return fmt.Errorf("fabric: multicast source %d out of range [0,%d)", p.Src, f.n)
	}
	if len(p.Dsts) == 0 {
		return fmt.Errorf("fabric: multicast packet from %d has no destinations", p.Src)
	}
	if len(p.Dsts) > f.n {
		return fmt.Errorf("fabric: multicast packet from %d targets %d ports, max %d", p.Src, len(p.Dsts), f.n)
	}
	seen := make([]bool, f.n)
	dsts := make([]int, len(p.Dsts))
	for i, d := range p.Dsts {
		if d < 0 || d >= f.n {
			return fmt.Errorf("fabric: multicast destination %d out of range [0,%d)", d, f.n)
		}
		if seen[d] {
			return fmt.Errorf("fabric: multicast destination %d listed twice", d)
		}
		seen[d] = true
		dsts[i] = d
	}
	if f.closed.Load() {
		f.met.rejected.Add(1)
		return ErrClosed
	}
	sh := f.shards[f.planeFor(p.Src, dsts[0])]
	slot := voqSlot[mpayload[T]]{payload: mpayload[T]{dsts: dsts, data: p.Payload}, tr: p.Trace}
	if err := sh.enqueueMcast(p.Src, slot, f.cfg.Policy); err != nil {
		f.met.rejected.Add(1)
		return err
	}
	f.met.accepted.Add(1)
	f.met.mcastAccepted.Add(1)
	return nil
}

// enqueueMcast publishes input src's multicast packet s into the
// input's queue, honouring the drop policy — the multicast twin of
// enqueue, sharing the seal protocol, admit's Block parking lot, and
// the scheduler wakeup.
func (v *voqShard[T]) enqueueMcast(src int, s voqSlot[mpayload[T]], policy DropPolicy) error {
	v.inflight.Add(1)
	defer v.inflight.Add(-1)
	if v.sealed.Load() {
		return ErrClosed
	}
	r := loadOrInit(&v.mrings[src], func() *voqRing[mpayload[T]] { return new(voqRing[mpayload[T]]) })
	if err := admit(v, r, src, s, policy); err != nil {
		return err
	}
	v.mcastQueued.Add(1)
	select {
	case v.notify <- struct{}{}:
	default:
	}
	return nil
}

// peek exposes the oldest payload without consuming it. Single
// consumer only; the returned pointer is valid until the next pop (a
// concurrent grow copies the slot into a new buffer but never rewrites
// the old one).
func (r *voqRing[T]) peek() (*T, bool) {
	if r.count.Load() == 0 {
		return nil, false
	}
	r.mu.Lock()
	p := &r.slots[r.head].payload
	r.mu.Unlock()
	return p, true
}

// claimMulticast folds claimable multicast heads into the frame under
// construction: a head is claimed only when its input and every one of
// its destinations are still free, taking the whole fan-out in one
// matching decision (the scheduler analogue of the copy network moving
// all copies in one pass). A blocked head stays queued and retries
// next frame — the rotating input pointer keeps it from being starved
// by always-later scanning. Consumer only.
func (v *voqShard[T]) claimMulticast(fr *frame[T], partial []int, taken []bool, tickNano int64) {
	n := v.n
	for k := 0; k < n; k++ {
		in := (v.rrIn + k) % n
		if partial[in] != Idle {
			continue
		}
		r := v.mrings[in].Load()
		if r == nil {
			continue
		}
		head, ok := r.peek()
		if !ok {
			continue
		}
		blocked := false
		for _, d := range head.dsts {
			if taken[d] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		s, _ := r.pop()
		v.mcastQueued.Add(-1)
		wait := time.Duration(tickNano - s.enq)
		if v.met != nil {
			v.met.VOQWait.Observe(wait)
		}
		s.tr.Fold("voq_wait", time.Unix(0, s.enq), wait, "")
		partial[in] = s.payload.dsts[0]
		fr.mcast = true
		fr.mpkts++
		for _, d := range s.payload.dsts {
			taken[d] = true
			fr.pkts = append(fr.pkts, Packet[T]{Src: in, Dst: d, Payload: s.payload.data, Trace: s.tr})
			fr.srcs = append(fr.srcs, in)
			fr.dsts = append(fr.dsts, d)
			fr.mcopies++
		}
	}
}

// RouteMulticastRound serves one whole-mapping collective round
// synchronously on a healthy plane: m[out] names the source whose
// chunk output out must receive, -1 leaves the output idle. Like
// RouteRound it moves no payload, and prefer selects the plane the
// failover walk tries first; the plane still walks every assigned
// output back through the plan before the round counts. The mapping
// is validated before any plane is touched, so a bad round can never
// take a plane out of rotation. Repeated rounds hit the plane's plan
// cache — the collective layer's pipelined schedules rely on that.
func (f *Fabric[T]) RouteMulticastRound(m []int, prefer int) (RoundResult, error) {
	if f.closed.Load() {
		return RoundResult{}, ErrClosed
	}
	mm := mcast.Mapping(m)
	if err := mm.Validate(f.n); err != nil {
		return RoundResult{}, fmt.Errorf("fabric: multicast round: %w", err)
	}
	if mm.Assigned() == 0 {
		return RoundResult{}, fmt.Errorf("fabric: multicast round assigns no outputs")
	}
	var hit bool
	p, err := f.failover(prefer, &f.met.roundFailovers, func(p *plane) error {
		resp := p.eng.RouteMulticast(mm, nil)
		hit = resp.CacheHit
		return resp.Err
	})
	if err != nil {
		return RoundResult{}, fmt.Errorf("fabric: no healthy plane for multicast round: %w", err)
	}
	p.rounds.Add(1)
	f.met.rounds.Add(1)
	f.met.mcastRounds.Add(1)
	if f.jrn.Enabled() {
		f.jrn.McastRound(p.id, mm, journal.DigestMapping(mm))
	}
	return RoundResult{Plane: p.id, Kind: engine.PlanMulticast, CacheHit: hit}, nil
}
