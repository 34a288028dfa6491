package fabric

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perm"
)

// ErrPlaneDown reports a route attempt on an unhealthy plane; the
// failover walk moves the frame or round on to a surviving plane, so
// callers see it (wrapped) only when every plane is out of rotation.
var ErrPlaneDown = errors.New("fabric: plane unhealthy")

// plane is one switching plane: an independent engine instance (its own
// plan cache and recorder) over its own copy of B(n). Planes share
// nothing, so K planes route K frames concurrently — the packet-switch
// analogue of a multi-plane fabric card.
type plane struct {
	id      int
	eng     *engine.Engine[int]
	met     *metrics // the fabric's stage histograms
	healthy atomic.Bool

	transitNote string // "plane <id>", the note on its frames' plane_transit spans

	frames    atomic.Int64 // frames this plane routed successfully
	packets   atomic.Int64 // payload packets inside those frames
	rounds    atomic.Int64 // collective rounds this plane routed successfully
	failovers atomic.Int64 // frames or rounds this plane rejected or misrouted

	// Injected damage: the stuck switches probes route through. Guarded
	// by mu and replaced, never mutated, so a reader may keep the slice.
	// A plane with faults is never healthy (see inject), so traffic
	// never meets them; only probes do.
	mu     sync.Mutex
	faults []core.Fault
}

func newPlane(id int, cfg engine.Config, met *metrics) (*plane, error) {
	eng, err := engine.New[int](cfg)
	if err != nil {
		return nil, fmt.Errorf("fabric: plane %d: %w", id, err)
	}
	p := &plane{id: id, eng: eng, met: met, transitNote: "plane " + strconv.Itoa(id)}
	p.healthy.Store(true)
	return p, nil
}

// inject sets the plane's stuck-switch faults. A non-empty set takes
// the plane out of rotation before it is published, so every frame or
// round dispatched after inject returns fails over; one already past
// the health check finishes on the fault-free engine, as with
// FailPlane. An empty set heals the plane: the faults are cleared
// before the plane rejoins the rotation. Holding mu across both steps
// keeps concurrent injections from leaving a healthy plane with faults.
func (p *plane) inject(faults []core.Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(faults) > 0 {
		p.healthy.Store(false)
	}
	p.faults = append([]core.Fault(nil), faults...)
	if len(faults) == 0 {
		p.healthy.Store(true)
	}
}

// serve runs one unit of fabric work — a frame or a collective round —
// on this plane in the caller's goroutine, timed as one plane round
// trip. It refuses the work while the plane is out of rotation. The
// work verifies its own outputs, so any error means nothing was
// delivered: the plane leaves the rotation, counts the refusal, and
// the caller's failover walk tries the next plane.
func (p *plane) serve(work func() error) error {
	if !p.healthy.Load() {
		p.failovers.Add(1)
		return ErrPlaneDown
	}
	rtt := time.Now()
	err := work()
	p.met.PlaneRTT.ObserveSince(rtt)
	if err != nil {
		p.healthy.Store(false)
		p.failovers.Add(1)
		return fmt.Errorf("fabric: plane %d: %w", p.id, err)
	}
	return nil
}

// probe answers one diagnosis probe on this plane: load d's tags, let
// the switches set themselves, report where every tag landed. On a
// damaged plane the pass is core.RouteWithFaults over the injected
// faults — the realized permutation then bears the fault's misroute
// fingerprint — and every stuck switch whose upper-input tag wanted
// the other state counts one fault hit in the plane recorder. On a
// healthy plane it is the engine's gate-faithful ProbeRoute. Either way
// the serving path's plan cache and looping fallback are bypassed: a
// probe reports what the self-setting hardware does, not what a
// corrected setup would do.
func (p *plane) probe(d perm.Perm) (perm.Perm, error) {
	p.mu.Lock()
	faults := p.faults
	p.mu.Unlock()
	if len(faults) == 0 {
		return p.eng.ProbeRoute(d)
	}
	net := p.eng.Network()
	if len(d) != net.N() {
		return nil, fmt.Errorf("fabric: probe size %d does not match N=%d", len(d), net.N())
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	res := net.RouteWithFaults(d, faults)
	rec := p.eng.Recorder()
	for _, f := range faults {
		upper := res.TagTrace[f.Stage][2*f.Switch]
		if wantCrossed := upper>>uint(net.ControlBit(f.Stage))&1 == 1; wantCrossed != f.StuckCrossed {
			rec.FaultHit(f.Stage, f.Switch)
		}
	}
	return res.Realized, nil
}

func (p *plane) close() { p.eng.Close() }

// PlaneSnapshot is the per-plane slice of a fabric Snapshot.
type PlaneSnapshot struct {
	ID        int             `json:"id"`
	Healthy   bool            `json:"healthy"`
	Faults    int             `json:"faults"`
	Frames    int64           `json:"frames"`
	Packets   int64           `json:"packets"`
	Rounds    int64           `json:"rounds"`
	Failovers int64           `json:"failovers"`
	Engine    engine.Snapshot `json:"engine"`
}

func (p *plane) snapshot() PlaneSnapshot {
	p.mu.Lock()
	nf := len(p.faults)
	p.mu.Unlock()
	return PlaneSnapshot{
		ID:        p.id,
		Healthy:   p.healthy.Load(),
		Faults:    nf,
		Frames:    p.frames.Load(),
		Packets:   p.packets.Load(),
		Rounds:    p.rounds.Load(),
		Failovers: p.failovers.Load(),
		Engine:    p.eng.Stats(),
	}
}
