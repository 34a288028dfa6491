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
// unicast VOQs' row type with one flow per input, which implies the
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
	// One bit per port, on the stack up to 1024 ports: the queued copy
	// below is the packet's one allocation.
	var seenBuf [16]uint64
	seen := seenBuf[:]
	if f.n > 64*len(seenBuf) {
		seen = make([]uint64, (f.n+63)/64)
	}
	for _, d := range p.Dsts {
		if d < 0 || d >= f.n {
			return fmt.Errorf("fabric: multicast destination %d out of range [0,%d)", d, f.n)
		}
		bit := uint64(1) << (uint(d) & 63)
		if seen[d>>6]&bit != 0 {
			return fmt.Errorf("fabric: multicast destination %d listed twice", d)
		}
		seen[d>>6] |= bit
	}
	dsts := append([]int(nil), p.Dsts...)
	if f.closed.Load() {
		f.met.Rejected.Add(1)
		return ErrClosed
	}
	sh := f.shards[f.planeFor(p.Src, dsts[0])]
	slot := voqSlot[mpayload[T]]{payload: mpayload[T]{dsts: dsts, data: p.Payload}, tr: p.Trace}
	if err := sh.enqueueMcast(p.Src, slot, f.cfg.Policy); err != nil {
		f.met.Rejected.Add(1)
		return err
	}
	f.met.Accepted.Add(1)
	f.met.Mcast.Accepted.Add(1)
	return nil
}

// enqueueMcast publishes input src's multicast packet s into the
// input's one-flow row, honouring the drop policy — the multicast twin of
// enqueue, sharing the seal protocol, admit's Block parking lot, and
// the scheduler wakeup.
func (v *voqShard[T]) enqueueMcast(src int, s voqSlot[mpayload[T]], policy DropPolicy) error {
	v.inflight.Add(1)
	defer v.inflight.Add(-1)
	if v.sealed.Load() {
		return ErrClosed
	}
	if err := admit(v, loadRow(&v.mrows[src], 1), 0, src, s, policy); err != nil {
		return err
	}
	v.mcastQueued.Add(1)
	select {
	case v.notify <- struct{}{}:
	default:
	}
	return nil
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
		r := v.mrows[in].Load()
		if r == nil {
			continue
		}
		head, ok := r.peek(0)
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
		s, _ := r.pop(0)
		v.mcastQueued.Add(-1)
		wait := time.Duration(tickNano - s.enq)
		if v.met != nil {
			v.met.Stages.VOQWait.Observe(wait)
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
	p, err := f.failover(prefer, &f.met.RoundFailovers, func(p *plane) error {
		resp := p.eng.RouteMulticast(mm, nil)
		hit = resp.CacheHit
		return resp.Err
	})
	if err != nil {
		return RoundResult{}, fmt.Errorf("fabric: no healthy plane for multicast round: %w", err)
	}
	p.counts.Rounds.Add(1)
	f.met.Rounds.Add(1)
	f.met.Mcast.Rounds.Add(1)
	if f.jrn.Enabled() {
		f.jrn.McastRound(p.id, mm, journal.DigestMapping(mm))
	}
	return RoundResult{Plane: p.id, Kind: engine.PlanMulticast, CacheHit: hit}, nil
}
