package fabric

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// tracker records deliveries by packet id and checks each packet lands
// on the destination it asked for.
type tracker struct {
	t         *testing.T
	delivered []atomic.Int64
	wantDst   []atomic.Int64 // Dst+1 recorded at send time (0 = unsent)
}

func newTracker(t *testing.T, capacity int) *tracker {
	return &tracker{
		t:         t,
		delivered: make([]atomic.Int64, capacity),
		wantDst:   make([]atomic.Int64, capacity),
	}
}

func (tr *tracker) deliver(p Packet[int]) {
	if want := tr.wantDst[p.Payload].Load(); want != int64(p.Dst)+1 {
		tr.t.Errorf("packet %d delivered to %d, want %d", p.Payload, p.Dst, want-1)
	}
	tr.delivered[p.Payload].Add(1)
}

// checkExactlyOnce asserts every accepted packet was delivered exactly
// once and every rejected packet not at all.
func (tr *tracker) checkExactlyOnce(accepted []bool) {
	for id, acc := range accepted {
		got := tr.delivered[id].Load()
		want := int64(0)
		if acc {
			want = 1
		}
		if got != want {
			tr.t.Fatalf("packet %d: delivered %d times, want %d (accepted=%v)", id, got, want, acc)
		}
	}
}

// TestFabricDeliveryExactlyOnce is the headline correctness test: at
// N=256 with K=4 planes, concurrent senders offer random traffic under
// the tail-drop policy; every accepted packet must be delivered to its
// destination exactly once and every tail-dropped packet must be
// counted as rejected.
func TestFabricDeliveryExactlyOnce(t *testing.T) {
	const (
		logN    = 8 // N = 256
		senders = 8
		perSend = 3000
		total   = senders * perSend
	)
	tr := newTracker(t, total)
	f, err := New[int](Config{LogN: logN, Planes: 4, VOQDepth: 16}, tr.deliver)
	if err != nil {
		t.Fatal(err)
	}

	accepted := make([]bool, total)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			n := f.N()
			for k := 0; k < perSend; k++ {
				id := s*perSend + k
				p := Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: id}
				tr.wantDst[id].Store(int64(p.Dst) + 1)
				switch err := f.Send(p); {
				case err == nil:
					accepted[id] = true
				case errors.Is(err, ErrBackpressure):
				default:
					t.Errorf("send %d: %v", id, err)
				}
			}
		}(s)
	}
	wg.Wait()
	f.Close() // drains the VOQs before returning

	tr.checkExactlyOnce(accepted)
	s := f.Stats()
	nAccepted := int64(0)
	for _, a := range accepted {
		if a {
			nAccepted++
		}
	}
	if s.Accepted != nAccepted || s.Accepted+s.Rejected != total {
		t.Fatalf("accounting broken: accepted=%d rejected=%d of %d", s.Accepted, s.Rejected, total)
	}
	if s.Delivered != nAccepted || s.Lost != 0 {
		t.Fatalf("delivered=%d lost=%d, want %d lost 0", s.Delivered, s.Lost, nAccepted)
	}
	planeFrames := int64(0)
	for _, ps := range s.Planes {
		planeFrames += ps.Frames
	}
	if planeFrames != s.Frames {
		t.Fatalf("plane frame counters (%d) disagree with fabric (%d)", planeFrames, s.Frames)
	}
	// Per-VOQ books: enqueued - occupied must equal delivered.
	enq, occ := int64(0), int64(0)
	for _, c := range s.VOQ.PerInput {
		enq += c.Enqueued
		occ += c.Occupied
	}
	if enq != s.Accepted || occ != 0 {
		t.Fatalf("VOQ books wrong: enqueued=%d occupied=%d", enq, occ)
	}
}

// TestFabricPlaneFailover injects a stuck switch into one of two planes
// mid-load while plane 0's router is parked inside its first delivery,
// so frames are still queued on plane 0 when the fault lands: the
// injection takes the plane out of rotation, every frame plane 0's
// router serves after that fails over to the survivor, and no accepted
// packet is lost or duplicated.
func TestFabricPlaneFailover(t *testing.T) {
	const (
		logN  = 8 // N = 256
		total = 4000
	)
	tr := newTracker(t, total)
	var (
		parked  = make(chan struct{})
		release = make(chan struct{})
		first   sync.Once
	)
	// Only plane 0's router serves frames on plane 0 while plane 1 is
	// healthy, so exactly that router parks here.
	batch := func(plane int, pkts []Packet[int]) {
		if plane == 0 {
			first.Do(func() {
				close(parked)
				<-release
			})
		}
		for _, p := range pkts {
			tr.deliver(p)
		}
	}
	f, err := NewBatched[int](Config{LogN: logN, Planes: 2, VOQDepth: 32, Policy: Block}, batch)
	if err != nil {
		t.Fatal(err)
	}

	accepted := make([]bool, total)
	rng := rand.New(rand.NewSource(99))
	send := func(id int) {
		p := Packet[int]{Src: rng.Intn(f.N()), Dst: rng.Intn(f.N()), Payload: id}
		tr.wantDst[id].Store(int64(p.Dst) + 1)
		if err := f.Send(p); err != nil {
			t.Errorf("send %d: %v", id, err)
			return
		}
		accepted[id] = true
	}
	// About half of the first quarter hashes to plane 0, more than one
	// frame of N packets can carry, so plane 0's shard still holds
	// packets once its router parks.
	for id := 0; id < total/4; id++ {
		send(id)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		close(release)
		f.Close()
		t.Fatal("plane 0 delivered no frame")
	}
	// Freeze a first-stage switch of plane 0 crossed. Injection takes
	// the plane out of rotation at once, so every frame its router
	// serves from here on fails over.
	if err := f.InjectFaults(0, []core.Fault{{Stage: 0, Switch: 3, StuckCrossed: true}}); err != nil {
		close(release)
		f.Close()
		t.Fatal(err)
	}
	close(release)
	for id := total / 4; id < total; id++ {
		send(id)
	}
	f.Close()

	tr.checkExactlyOnce(accepted)
	s := f.Stats()
	if s.Delivered != s.Accepted || s.Lost != 0 {
		t.Fatalf("failover lost packets: %+v", s)
	}
	if s.Planes[0].Healthy {
		t.Fatalf("damaged plane should be out of rotation: %+v", s.Planes[0])
	}
	if !s.Planes[1].Healthy || s.Planes[1].Frames == 0 {
		t.Fatalf("surviving plane should carry the load: %+v", s.Planes[1])
	}
	if s.Failovers == 0 || s.Planes[0].Failovers == 0 {
		t.Fatalf("frames queued on plane 0 must fail over: fabric failovers %d, plane 0 refusals %d",
			s.Failovers, s.Planes[0].Failovers)
	}
}

// TestFrameServersBuiltOnFirstUse checks that a router builds a frame
// server only for a plane it serves a frame on, and only of the frame's
// kind: an idle fabric holds none, a unicast frame builds its home
// plane's unicast server alone, and a frame that fails over from a
// plane out of rotation builds the target plane's.
func TestFrameServersBuiltOnFirstUse(t *testing.T) {
	var (
		parked  = make(chan struct{})
		release = make(chan struct{})
		first   sync.Once
	)
	delivered := atomic.Int64{}
	batch := func(plane int, pkts []Packet[int]) {
		if plane == 0 {
			first.Do(func() {
				close(parked)
				<-release
			})
		}
		delivered.Add(int64(len(pkts)))
	}
	f, err := NewBatched[int](Config{LogN: 3, Planes: 2}, batch)
	if err != nil {
		t.Fatal(err)
	}
	// built lists which of router i's servers exist, unicast then
	// multicast, per plane.
	built := func(i int) [2][2]bool {
		rs := &f.routers[i]
		return [2][2]bool{{rs.fs[0] != nil, rs.fs[1] != nil}, {rs.ms[0] != nil, rs.ms[1] != nil}}
	}
	none := [2][2]bool{}
	for i := range f.routers {
		if got := built(i); got != none {
			t.Fatalf("idle router %d holds servers %v", i, got)
		}
	}
	src, dst := 0, 0
	for p, _ := f.PlaneFor(src, dst); p != 0; p, _ = f.PlaneFor(src, dst) {
		dst++
	}
	if err := f.Send(Packet[int]{Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		close(release)
		f.Close()
		t.Fatal("plane 0 delivered no frame")
	}
	if got, want := built(0), [2][2]bool{{true, false}}; got != want {
		t.Errorf("after one unicast frame on plane 0, router 0 holds %v, want %v", got, want)
	}
	// A second packet waits on plane 0 while its router is parked; the
	// plane then leaves the rotation, so that frame fails over to plane 1.
	if err := f.Send(Packet[int]{Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	close(release)
	f.Close()
	if got, want := built(0), [2][2]bool{{true, true}}; got != want {
		t.Errorf("after a failover to plane 1, router 0 holds %v, want %v", got, want)
	}
	if got := built(1); got != none {
		t.Errorf("router 1 served no frame but holds %v", got)
	}
	if s := f.Stats(); s.Failovers != 1 || delivered.Load() != 2 {
		t.Errorf("failovers %d, delivered %d; want 1 and 2", s.Failovers, delivered.Load())
	}
}

// TestFabricRepairRestoresPlane heals an injected fault and checks the
// plane rejoins the rotation.
func TestFabricRepairRestoresPlane(t *testing.T) {
	f, err := New[int](Config{LogN: 4, Planes: 2, Policy: Block}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Planes[0].Healthy {
		t.Fatal("FailPlane must mark the plane down")
	}
	if err := f.RestorePlane(0); err != nil {
		t.Fatal(err)
	}
	if !f.Stats().Planes[0].Healthy {
		t.Fatal("RestorePlane must bring the plane back")
	}
	if err := f.InjectFaults(5, nil); err == nil {
		t.Fatal("faults on a nonexistent plane must error")
	}
}

// TestFabricAllPlanesDown checks the books still balance when no plane
// can serve: accepted packets are counted lost, never silently vanish.
func TestFabricAllPlanesDown(t *testing.T) {
	var delivered atomic.Int64
	f, err := New[int](Config{LogN: 3, Planes: 1}, func(Packet[int]) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := f.Send(Packet[int]{Src: i % 8, Dst: (i + 3) % 8}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	s := f.Stats()
	if delivered.Load() != 0 || s.Delivered != 0 {
		t.Fatal("nothing should be delivered with every plane down")
	}
	if s.Lost != s.Accepted || s.Accepted != 20 {
		t.Fatalf("lost packets must be accounted: %+v", s)
	}
}

// TestFabricBlockPolicy checks Block makes Send wait out a full VOQ
// instead of dropping.
func TestFabricBlockPolicy(t *testing.T) {
	var delivered atomic.Int64
	f, err := New[int](Config{LogN: 2, Planes: 1, VOQDepth: 1, Policy: Block},
		func(Packet[int]) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// 50 packets through a depth-1 queue: every Send must eventually
	// succeed, so rejected stays 0.
	for i := 0; i < 50; i++ {
		if err := f.Send(Packet[int]{Src: 1, Dst: 2, Payload: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	f.Close()
	s := f.Stats()
	if s.Rejected != 0 || s.Delivered != 50 || delivered.Load() != 50 {
		t.Fatalf("block policy must deliver everything: %+v", s)
	}
}

// TestFabricSendValidation covers the rejection paths.
func TestFabricSendValidation(t *testing.T) {
	f, err := New[int](Config{LogN: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(Packet[int]{Src: -1, Dst: 0}); err == nil {
		t.Fatal("negative source must be rejected")
	}
	if err := f.Send(Packet[int]{Src: 0, Dst: 8}); err == nil {
		t.Fatal("out-of-range destination must be rejected")
	}
	f.Close()
	if err := f.Send(Packet[int]{Src: 0, Dst: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
	if _, err := New[int](Config{LogN: 0}, nil); err == nil {
		t.Fatal("LogN=0 must be rejected")
	}
}

// TestFabricBlockedSenderUnblocksOnClose makes sure a sender parked on
// a full queue under Block is released with ErrClosed when the fabric
// shuts down.
func TestFabricBlockedSenderUnblocksOnClose(t *testing.T) {
	f, err := New[int](Config{LogN: 2, Planes: 1, VOQDepth: 1, Policy: Block}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailPlane(0); err != nil { // nothing drains
		t.Fatal(err)
	}
	// Fill the (0,1) VOQ, then park a second sender on it.
	if err := f.Send(Packet[int]{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- f.Send(Packet[int]{Src: 0, Dst: 1}) }()
	f.Close()
	if err := <-res; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked sender should see nil (raced the drain) or ErrClosed, got %v", err)
	}
}
