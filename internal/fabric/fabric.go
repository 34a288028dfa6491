// Package fabric is a packet-switched serving layer over the routing
// engine of internal/engine. The paper's network moves one full
// permutation per pass, but production traffic arrives as independent
// packets; following Huang & Walrand's observation that Benes networks
// run well in packet mode, the fabric bridges the two models:
//
//   - arriving packets land in bounded virtual output queues (VOQs),
//     one FIFO per (input, output) pair threaded through its input's
//     slot arena, so a hot output cannot head-of-line block unrelated
//     traffic and senders of different inputs never share a lock;
//   - every (src, dst) flow is pinned to one switching plane by a
//     rendezvous hash over the healthy planes, so the ingress is sharded
//     per plane with no cross-plane contention and a flow's packets stay
//     in order on one plane;
//   - each plane owns a scheduler goroutine that repeatedly extracts a
//     conflict-free partial matching from its shard (at most one packet
//     per input and per output, rotating iSLIP-style pointers for
//     fairness), completes it to a full permutation, and hands the whole
//     frame to its router in one channel exchange;
//   - each plane's router serves frames synchronously through the
//     engine's FrameServer — no worker handoff, no plan-cache churn, no
//     steady-state allocations — and fails frames over to the next
//     healthy plane when its own plane is down or misroutes;
//   - full queues exert backpressure with a configurable policy (tail
//     drop or blocking), and delivery callbacks are coalesced per frame
//     (see NewBatched) instead of paid per packet.
//
// Accepted packets are delivered exactly once: a frame is only
// delivered after the serving plane verifies every packet at its output
// port, and a failed frame is re-dispatched in full to another plane.
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/perm"
)

// Errors returned by Send.
var (
	// ErrBackpressure reports a tail drop: the packet's VOQ is full and
	// the fabric runs the DropNew policy.
	ErrBackpressure = errors.New("fabric: VOQ full")
	// ErrClosed reports a send to a closed fabric.
	ErrClosed = errors.New("fabric: closed")
)

// Packet is one unit of traffic: deliver Payload from input port Src to
// output port Dst. Trace, when non-nil, accumulates per-stage spans
// (VOQ wait, plane transit) as the packet moves through the fabric,
// folded with those of every other packet sharing the trace into one
// span per stage (and plane); the fabric never releases the trace's
// reference — whoever attached it (e.g. benesd's request middleware)
// owns its lifecycle.
type Packet[T any] struct {
	Src     int
	Dst     int
	Payload T
	Trace   *obs.Trace
}

// frame is one scheduled unit of switching work: a full permutation
// dest carrying len(pkts) real packets (pkts[k] travels srcs[k] →
// dsts[k]); the remaining ports carry filler assignments. Frames are
// pooled per plane and reused, so the slices alias caller-invisible
// memory that is recycled after delivery.
//
// A frame that claimed at least one multicast head-of-line packet has
// mcast set; its port assignment is then the output-major mapping
// outSrc (an input may feed several outputs, so no permutation can
// express it) and pkts holds one entry per copy. mpkts counts the
// logical multicast packets folded in and mcopies their total copies.
type frame[T any] struct {
	dest       perm.Perm
	pkts       []Packet[T]
	srcs, dsts []int

	outSrc  []int
	mcast   bool
	mpkts   int
	mcopies int
}

func newFrame[T any](n int) *frame[T] {
	return &frame[T]{
		dest:   make(perm.Perm, n),
		pkts:   make([]Packet[T], 0, n),
		srcs:   make([]int, 0, n),
		dsts:   make([]int, 0, n),
		outSrc: make([]int, n),
	}
}

func (fr *frame[T]) reset() {
	var zero Packet[T]
	for i := range fr.pkts {
		fr.pkts[i] = zero // release payload and trace references
	}
	fr.pkts = fr.pkts[:0]
	fr.srcs = fr.srcs[:0]
	fr.dsts = fr.dsts[:0]
	fr.mcast = false
	fr.mpkts = 0
	fr.mcopies = 0
}

// Affinity is ignored: Send pins every flow to its plane by rendezvous
// hashing (see PlaneFor). The type, its one value and Config.Affinity
// stay for callers outside this module.
type Affinity int

// FlowHash pins each (src, dst) flow to one healthy plane by
// rendezvous hashing: minimal reshuffling when a plane leaves or
// rejoins the rotation, per-flow FIFO order within a stable healthy
// set, and zero cross-plane contention per flow.
const FlowHash Affinity = 0

// Config parameterizes New. The zero value of every field except LogN
// selects a sensible default.
type Config struct {
	// LogN is n = log2(N), the size of each plane's Benes network B(n).
	LogN int
	// Planes is K, the number of parallel switching planes. Defaults
	// to 1.
	Planes int
	// VOQDepth bounds each (input, output) queue, rounded up to a power
	// of two. Defaults to DefaultVOQDepth.
	VOQDepth int
	// Policy selects what Send does when a VOQ is full.
	Policy DropPolicy
	// Affinity is ignored: every flow is pinned to its plane by
	// rendezvous hashing. It stays in Config for callers outside this
	// module.
	Affinity Affinity
	// ParallelSetup is ignored: a plane engine sets up every round
	// outside F(n) with the serial looping algorithm, as it does every
	// frame. It stays in Config for callers outside this module.
	ParallelSetup bool
	// Record attaches a gate-level flight recorder to every plane:
	// per-switch traversal, flip, and fault-hit counters, served by
	// PlaneRecorder and exported per stage by Register. Frames count
	// traversals for their real packets only (filler assignments pin
	// switches but move nothing). A probe of a damaged plane counts
	// fault hits only: one per stuck switch its tags wanted the other
	// way.
	Record bool
	// Journal, when enabled, receives one hash-chained record per
	// verified frame (unicast and multicast), collective round, fault
	// injection, and plane fail/restore, making the fabric's traffic
	// window replayable by internal/journal. Nil disables journaling at
	// the cost of one pointer test per event.
	Journal *journal.Writer
}

// DefaultVOQDepth bounds each virtual output queue unless Config says
// otherwise.
const DefaultVOQDepth = 64

func (c Config) withDefaults() Config {
	if c.Planes <= 0 {
		c.Planes = 1
	}
	if c.VOQDepth <= 0 {
		c.VOQDepth = DefaultVOQDepth
	}
	return c
}

// handoffDepth is the depth of each plane's scheduler → router channel.
// Two frames keep the router busy: the scheduler builds the next
// matching while the router serves the current one, and the second
// slot absorbs jitter between the two goroutines. A deeper queue adds
// no throughput once the router is the bottleneck; it only freezes
// more matchings early, holding packets in built frames instead of
// letting the VOQs fill the next, fuller frame.
const handoffDepth = 2

// Fabric is a multi-plane packet switch. All methods are safe for
// concurrent use.
type Fabric[T any] struct {
	cfg       Config
	n         int
	shards    []*voqShard[T] // one ingress shard per plane
	planes    []*plane
	planeSeed []uint64         // rendezvous-hash seed per plane
	frames    []chan *frame[T] // per-plane scheduler → router handoff
	freelist  []chan *frame[T] // per-plane frame recycling
	met       metrics
	jrn       *journal.Writer

	deliver      func(Packet[T])
	deliverBatch func(plane int, pkts []Packet[T])

	closing   chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds and starts a fabric of cfg.Planes planes over B(cfg.LogN).
// deliver, if non-nil, is invoked once per packet after the packet is
// verified at its output port; it may be called concurrently from
// several router goroutines and must be safe for that.
func New[T any](cfg Config, deliver func(Packet[T])) (*Fabric[T], error) {
	return newFabric(cfg, deliver, nil)
}

// NewBatched is New with a coalesced delivery callback: after a frame
// is verified, deliverBatch is invoked once with the serving plane and
// every packet the frame carried, instead of once per packet. pkts is
// only valid for the duration of the call — the fabric recycles the
// backing array — so callers that retain packets must copy them out.
// deliverBatch may be called concurrently from several router
// goroutines and must be safe for that.
func NewBatched[T any](cfg Config, deliverBatch func(plane int, pkts []Packet[T])) (*Fabric[T], error) {
	return newFabric(cfg, nil, deliverBatch)
}

func newFabric[T any](cfg Config, deliver func(Packet[T]), deliverBatch func(int, []Packet[T])) (*Fabric[T], error) {
	if cfg.LogN < 1 {
		return nil, fmt.Errorf("fabric: Config.LogN must be >= 1, got %d", cfg.LogN)
	}
	cfg = cfg.withDefaults()
	n := 1 << cfg.LogN
	f := &Fabric[T]{
		cfg:          cfg,
		n:            n,
		shards:       make([]*voqShard[T], cfg.Planes),
		planes:       make([]*plane, cfg.Planes),
		planeSeed:    make([]uint64, cfg.Planes),
		frames:       make([]chan *frame[T], cfg.Planes),
		freelist:     make([]chan *frame[T], cfg.Planes),
		deliver:      deliver,
		deliverBatch: deliverBatch,
		jrn:          cfg.Journal,
		closing:      make(chan struct{}),
	}
	for i := range f.planes {
		var rec *netsim.Recorder
		if cfg.Record {
			rec = netsim.NewRecorder(core.New(cfg.LogN), 1)
		}
		p, err := newPlane(i, engine.Config{LogN: cfg.LogN, Recorder: rec}, &f.met)
		if err != nil {
			for _, q := range f.planes[:i] {
				q.close()
			}
			return nil, err
		}
		f.planes[i] = p
		f.shards[i] = newVOQShard[T](n, cfg.VOQDepth, &f.met)
		f.planeSeed[i] = mix64(uint64(i) + 0x9e3779b97f4a7c15)
		f.frames[i] = make(chan *frame[T], handoffDepth)
		// Room for every frame in circulation: the queued ones, the one
		// the scheduler is building and the one the router is serving.
		f.freelist[i] = make(chan *frame[T], handoffDepth+2)
	}
	// Everything the goroutines start with is allocated here, so New
	// returns with the fabric's idle memory in place: the scheduler's
	// first frame and each router's frame servers.
	for i := range f.planes {
		f.freelist[i] <- newFrame[T](n)
		servers := make([]*engine.FrameServer[int], len(f.planes))
		mservers := make([]*engine.McastFrameServer[int], len(f.planes))
		for j, p := range f.planes {
			servers[j] = p.eng.NewFrameServer()
			mservers[j] = p.eng.NewMcastFrameServer()
		}
		f.wg.Add(2)
		go f.scheduler(i)
		go f.router(i, servers, mservers)
	}
	return f, nil
}

// N returns the number of ports per plane.
func (f *Fabric[T]) N() int { return f.n }

// Planes returns K.
func (f *Fabric[T]) Planes() int { return len(f.planes) }

// PlaneRecorder returns plane id's gate-level flight recorder, nil when
// Config.Record was off or id is out of range.
func (f *Fabric[T]) PlaneRecorder(id int) *netsim.Recorder {
	if id < 0 || id >= len(f.planes) {
		return nil
	}
	return f.planes[id].eng.Recorder()
}

// PlaneLadderRecorder returns plane id's copy-ladder flight recorder
// (log N stages of fan-out switch counters), nil when Config.Record
// was off or id is out of range.
func (f *Fabric[T]) PlaneLadderRecorder(id int) *netsim.Recorder {
	if id < 0 || id >= len(f.planes) {
		return nil
	}
	return f.planes[id].eng.LadderRecorder()
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixer for the flow hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// planeFor picks the (src, dst) flow's home plane by rendezvous
// hashing over the currently healthy planes: the healthy plane whose
// seeded hash of the flow key is highest wins, so a plane leaving the
// rotation moves only the flows it was serving and a rejoining plane
// reclaims exactly its old flows. With every plane down the hash runs
// over all planes instead, keeping the choice deterministic (the frames
// will be counted lost at dispatch, preserving the books).
func (f *Fabric[T]) planeFor(src, dst int) int {
	key := mix64(uint64(src)<<32 | uint64(dst))
	best, bestW := -1, uint64(0)
	for i, p := range f.planes {
		if !p.healthy.Load() {
			continue
		}
		if w := mix64(key ^ f.planeSeed[i]); best == -1 || w > bestW {
			best, bestW = i, w
		}
	}
	if best >= 0 {
		return best
	}
	for i := range f.planes {
		if w := mix64(key ^ f.planeSeed[i]); best == -1 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// PlaneFor reports which plane the (src, dst) flow is currently pinned
// to: the plane a Send of that flow would enqueue toward given the
// present healthy set. Exported so tests and operators can predict and
// verify flow placement.
func (f *Fabric[T]) PlaneFor(src, dst int) (int, error) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return 0, fmt.Errorf("fabric: flow (%d -> %d) out of range [0,%d)", src, dst, f.n)
	}
	return f.planeFor(src, dst), nil
}

// Health is the fabric's readiness view: how much of the redundant
// capacity is actually in rotation and how full the ingress queues run.
// Readiness probes compare these against their thresholds.
type Health struct {
	PlanesTotal   int   `json:"planes_total"`
	PlanesHealthy int   `json:"planes_healthy"`
	VOQOccupied   int64 `json:"voq_occupied"`
	VOQCapacity   int64 `json:"voq_capacity"`
}

// Health reads the fabric's live readiness signals. It is cheap — one
// atomic read per plane plus the VOQ occupancy sums — and safe to call
// from a probe handler on every scrape. VOQCapacity is the logical
// bound N²·depth: pinned to one plane, each (src, dst) flow owns
// exactly one queue across all shards, which may grow to depth. It is
// an admission bound, not allocated memory: an input's row is
// allocated on its first packet, and its slot arena grows only to the
// input's peak queued packets.
func (f *Fabric[T]) Health() Health {
	h := Health{
		PlanesTotal: len(f.planes),
		VOQCapacity: int64(f.n) * int64(f.n) * int64(ringDepth(f.cfg.VOQDepth)),
	}
	for i, p := range f.planes {
		if p.healthy.Load() {
			h.PlanesHealthy++
		}
		h.VOQOccupied += f.shards[i].occupancy()
	}
	return h
}

// Send offers one packet to the fabric. It returns nil when the packet
// is accepted — from then on the fabric delivers it exactly once — or
// ErrBackpressure / ErrClosed when it is not. With Policy == Block a
// full queue makes Send wait instead of dropping.
func (f *Fabric[T]) Send(p Packet[T]) error {
	if p.Src < 0 || p.Src >= f.n || p.Dst < 0 || p.Dst >= f.n {
		return fmt.Errorf("fabric: packet (%d -> %d) out of range [0,%d)", p.Src, p.Dst, f.n)
	}
	if f.closed.Load() {
		f.met.Rejected.Add(1)
		return ErrClosed
	}
	sh := f.shards[f.planeFor(p.Src, p.Dst)]
	if err := sh.enqueue(p, f.cfg.Policy); err != nil {
		f.met.Rejected.Add(1)
		return err
	}
	f.met.Accepted.Add(1)
	return nil
}

// InjectFaults freezes switches of plane id in their stuck states and
// takes the plane out of rotation before the faults take effect: every
// frame or round dispatched after InjectFaults returns fails over to a
// surviving plane, and new flows rehash away from it. One already past
// the health check finishes on the plane's fault-free engine, exactly
// as with FailPlane. The damaged plane still answers ProbePlane — that
// is how a diagnosis session localizes the stuck switch while traffic
// routes around it. Injecting an empty fault set repairs and restores
// the plane.
func (f *Fabric[T]) InjectFaults(id int, faults []core.Fault) error {
	if id < 0 || id >= len(f.planes) {
		return fmt.Errorf("fabric: no plane %d", id)
	}
	for _, flt := range faults {
		// Operator input: reject out-of-range coordinates here rather than
		// panic in core's fault model at probe time.
		if err := f.planes[id].eng.Network().CheckFault(flt); err != nil {
			return err
		}
	}
	f.planes[id].inject(faults)
	f.jrn.Inject(id, faults)
	return nil
}

// ProbePlane runs one diagnosis probe through plane id and returns the
// realized permutation — the fabric's Oracle hook for package diagnose
// (wrap it in a diagnose.OracleFunc). The pass moves no payload and
// touches no VOQ: the plane's engine answers from ProbeRoute over the
// plane's injected faults (none on a healthy plane), recording each
// fault hit in the plane recorder. It bypasses the plan cache and the
// looping fallback, so the observation reflects the self-setting switch
// logic alone. Probing works on planes that are out of rotation — that
// is the point: diagnosis localizes the stuck switch while production
// traffic routes around the plane.
func (f *Fabric[T]) ProbePlane(id int, d perm.Perm) (perm.Perm, error) {
	if id < 0 || id >= len(f.planes) {
		return nil, fmt.Errorf("fabric: no plane %d", id)
	}
	return f.planes[id].probe(d)
}

// FailPlane administratively marks plane id unhealthy; its flows rehash
// to the surviving planes and in-flight frames fail over until
// RestorePlane.
func (f *Fabric[T]) FailPlane(id int) error {
	if id < 0 || id >= len(f.planes) {
		return fmt.Errorf("fabric: no plane %d", id)
	}
	f.planes[id].healthy.Store(false)
	f.jrn.Fail(id)
	return nil
}

// RestorePlane clears plane id's faults and returns it to rotation.
func (f *Fabric[T]) RestorePlane(id int) error {
	if id < 0 || id >= len(f.planes) {
		return fmt.Errorf("fabric: no plane %d", id)
	}
	f.planes[id].inject(nil)
	f.jrn.Restore(id)
	return nil
}

// Close stops accepting packets, schedules everything still queued,
// waits for the routers to drain, and shuts the planes down. Close is
// idempotent. Packets accepted before Close are still delivered,
// unless no healthy plane remains, in which case they are counted as
// lost in the snapshot.
func (f *Fabric[T]) Close() {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		close(f.closing)
		f.wg.Wait()
		for _, p := range f.planes {
			p.close()
		}
	})
}

// takeFrame recycles a frame from plane i's freelist, allocating only
// when the pool is dry (startup, or a deliverBatch callback still
// holding the previous frame's slices longer than the window).
func (f *Fabric[T]) takeFrame(i int) *frame[T] {
	select {
	case fr := <-f.freelist[i]:
		return fr
	default:
		return newFrame[T](f.n)
	}
}

func (f *Fabric[T]) putFrame(i int, fr *frame[T]) {
	fr.reset()
	select {
	case f.freelist[i] <- fr:
	default:
	}
}

// scheduler is plane i's matchmaking loop: each iteration extracts one
// frame from the plane's ingress shard and hands the whole matching to
// the router in one channel exchange, blocking — and thereby letting
// the VOQs fill and exert backpressure — when the router is behind. On
// close it seals the shard and drains it before exiting.
func (f *Fabric[T]) scheduler(i int) {
	defer f.wg.Done()
	defer close(f.frames[i])
	sh := f.shards[i]
	for {
		select {
		case <-f.closing:
			f.drainShard(i)
			return
		default:
		}
		fr := f.takeFrame(i)
		if !sh.buildFrame(fr) {
			f.putFrame(i, fr)
			select {
			case <-sh.notify:
			case <-f.closing:
				f.drainShard(i)
				return
			}
			continue
		}
		f.handoff(i, fr)
	}
}

// drainShard seals plane i's shard — after which every accepted packet
// is observable in its queues — and schedules the remainder.
func (f *Fabric[T]) drainShard(i int) {
	sh := f.shards[i]
	sh.seal()
	for {
		fr := f.takeFrame(i)
		if !sh.buildFrame(fr) {
			f.putFrame(i, fr)
			return
		}
		f.handoff(i, fr)
	}
}

// handoff counts a built frame and passes it to plane i's router,
// blocking while the router is behind.
func (f *Fabric[T]) handoff(i int, fr *frame[T]) {
	f.met.Frames.Add(1)
	if fr.mcast {
		f.met.Mcast.Frames.Add(1)
	}
	f.met.Stages.HandoffBatch.ObserveValue(int64(len(fr.pkts)))
	f.frames[i] <- fr
}

// router serves plane i's frames synchronously through per-plane
// FrameServers (its own, plus one per failover target), so the frame
// hot path never crosses a goroutine boundary after the scheduler
// handoff.
func (f *Fabric[T]) router(i int, servers []*engine.FrameServer[int], mservers []*engine.McastFrameServer[int]) {
	defer f.wg.Done()
	for fr := range f.frames[i] {
		f.dispatch(i, servers, mservers, fr)
		f.putFrame(i, fr)
	}
}

// failover is the failover walk every unit of fabric work takes: it
// tries the planes in turn, from start round the ring, and serves the
// work on the first one whose plane.serve accepts it, running work on
// that plane. A serve after a refusal counts one failover in
// failovers. With every plane refused, the error is ErrPlaneDown.
func (f *Fabric[T]) failover(start int, failovers *obs.Counter, work func(p *plane) error) (*plane, error) {
	k := len(f.planes)
	start = ((start % k) + k) % k
	for attempt := 0; attempt < k; attempt++ {
		p := f.planes[(start+attempt)%k]
		if p.serve(func() error { return work(p) }) != nil {
			continue
		}
		if attempt > 0 {
			failovers.Add(1)
		}
		return p, nil
	}
	return nil, ErrPlaneDown
}

// dispatch serves one frame through the failover walk from its home
// plane. A unicast frame goes through the plane's FrameServer, a frame
// carrying multicast copies through its McastFrameServer, and its
// books also track the fan-out. Delivery is coalesced: one
// deliverBatch call (or a tight deliver loop) per frame.
func (f *Fabric[T]) dispatch(home int, servers []*engine.FrameServer[int], mservers []*engine.McastFrameServer[int], fr *frame[T]) {
	start := time.Now()
	var (
		p   *plane
		err error
	)
	if fr.mcast {
		// A mapping that does not compile is a property of the frame,
		// not of a plane: compile it on the home plane's server before
		// the walk, so such a frame takes no plane out of rotation. A
		// plane further along the walk compiles it on its own server.
		if err = mservers[home].Prepare(fr.outSrc); err == nil {
			p, err = f.failover(home, &f.met.Failovers, func(p *plane) error {
				ms := mservers[p.id]
				if p.id != home {
					if err := ms.Prepare(fr.outSrc); err != nil {
						return err
					}
				}
				return ms.ServePrepared(fr.dsts)
			})
		}
	} else {
		p, err = f.failover(home, &f.met.Failovers, func(p *plane) error {
			return servers[p.id].Serve(fr.dest, fr.srcs)
		})
	}
	if err != nil {
		// No plane delivered the frame: the packets are accepted but
		// undeliverable. Account for them so the books still balance.
		f.met.Lost.Add(int64(len(fr.pkts)))
		for _, pkt := range fr.pkts {
			pkt.Trace.Fold("lost", time.Now(), 0, "no plane delivered the frame")
		}
		return
	}
	p.counts.Frames.Add(1)
	p.counts.Packets.Add(int64(len(fr.srcs)))
	f.met.Delivered.Add(int64(len(fr.pkts)))
	if fr.mcast {
		f.met.Mcast.Delivered.Add(int64(fr.mpkts))
		f.met.Mcast.Copies.Add(int64(fr.mcopies))
	}
	if f.jrn.Enabled() {
		// The pairs are all a frame record needs: a unicast frame's
		// filler is their completion, a multicast frame's mapping is
		// them with every other output idle.
		digest := journal.DigestPairs(fr.srcs, fr.dsts)
		if fr.mcast {
			f.jrn.McastFrame(p.id, fr.srcs, fr.dsts, digest)
		} else {
			f.jrn.Frame(p.id, fr.srcs, fr.dsts, digest)
		}
	}
	transit := time.Since(start)
	for _, pkt := range fr.pkts {
		pkt.Trace.Fold("plane_transit", start, transit, p.transitNote)
	}
	f.met.Stages.Coalesce.ObserveValue(int64(len(fr.pkts)))
	switch {
	case f.deliverBatch != nil:
		f.deliverBatch(p.id, fr.pkts)
	case f.deliver != nil:
		for _, pkt := range fr.pkts {
			f.deliver(pkt)
		}
	}
}
