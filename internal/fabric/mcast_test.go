package fabric

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gcn"
)

// mcastCollector records every delivered copy keyed by payload, so a
// test can compare the delivered destination multiset per packet.
type mcastCollector struct {
	mu   sync.Mutex
	dsts map[int][]int
}

func newMcastCollector() *mcastCollector {
	return &mcastCollector{dsts: make(map[int][]int)}
}

func (c *mcastCollector) deliver(p Packet[int]) {
	c.mu.Lock()
	c.dsts[p.Payload] = append(c.dsts[p.Payload], p.Dst)
	c.mu.Unlock()
}

func (c *mcastCollector) got(payload int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dsts[payload]
}

func sameSet(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want set %v", got, want)
	}
	seen := make(map[int]int)
	for _, d := range got {
		seen[d]++
	}
	for _, d := range want {
		if seen[d] != 1 {
			t.Fatalf("delivered %v, want each of %v exactly once", got, want)
		}
	}
}

func TestSendMulticastDelivery(t *testing.T) {
	col := newMcastCollector()
	f, err := New(Config{LogN: 3, Planes: 1, Policy: Block}, col.deliver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pkts := map[int][]int{
		1: {0, 3, 5, 7},
		2: {1, 2},
		3: {4},
	}
	for payload, dsts := range pkts {
		if err := f.SendMulticast(MulticastPacket[int]{Src: payload, Dsts: dsts, Payload: payload}); err != nil {
			t.Fatalf("SendMulticast(%d): %v", payload, err)
		}
	}
	f.Close()
	for payload, want := range pkts {
		sameSet(t, col.got(payload), want)
	}
	s := f.Stats()
	if s.Mcast.Accepted != 3 || s.Mcast.Delivered != 3 {
		t.Fatalf("mcast accepted/delivered = %d/%d, want 3/3", s.Mcast.Accepted, s.Mcast.Delivered)
	}
	if s.Mcast.Copies != 7 {
		t.Fatalf("mcast copies = %d, want 7", s.Mcast.Copies)
	}
	if s.Lost != 0 {
		t.Fatalf("lost = %d, want 0", s.Lost)
	}
	if amp := s.Mcast.FanoutAmplification; amp < 2.3 || amp > 2.4 {
		t.Fatalf("fanout amplification = %v, want 7/3", amp)
	}
}

func TestSendMulticastRejections(t *testing.T) {
	f, err := New[int](Config{LogN: 3}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	cases := []MulticastPacket[int]{
		{Src: -1, Dsts: []int{0}},
		{Src: 8, Dsts: []int{0}},
		{Src: 0, Dsts: nil},
		{Src: 0, Dsts: []int{8}},
		{Src: 0, Dsts: []int{3, 3}},
	}
	for i, p := range cases {
		if err := f.SendMulticast(p); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
	// Past 1024 ports the repeat check's bitset leaves the stack.
	big, err := New[int](Config{LogN: 11}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer big.Close()
	for _, c := range []struct {
		f    *Fabric[int]
		dsts []int
		want string
	}{
		{f, []int{1, 3, 1}, "fabric: multicast destination 1 listed twice"},
		{f, []int{1, 3, 8}, "fabric: multicast destination 8 out of range [0,8)"},
		{big, []int{2047, 64, 2047}, "fabric: multicast destination 2047 listed twice"},
	} {
		if err := c.f.SendMulticast(MulticastPacket[int]{Src: 0, Dsts: c.dsts}); err == nil || err.Error() != c.want {
			t.Fatalf("Dsts %v at N=%d: error %v, want %q", c.dsts, c.f.N(), err, c.want)
		}
	}
}

// TestSendMulticastAllocs pins a multicast packet's admission at N=256
// to one allocation, the destination copy its queue keeps: the repeat
// check marks ports in a bitset on the stack.
func TestSendMulticastAllocs(t *testing.T) {
	f, err := New[int](Config{LogN: 8, Planes: 1}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	p := MulticastPacket[int]{Src: 3, Dsts: []int{0, 64, 128, 255}}
	allocs := testing.AllocsPerRun(500, func() {
		if err := f.SendMulticast(p); err != nil && err != ErrBackpressure {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("SendMulticast allocates %.1f objects per packet, want 1 (the destination copy)", allocs)
	}
}

// TestFabricMulticastExhaustiveGCN pushes every (source, destination
// set) pair at N=8 through the packet fabric and checks the delivered
// copies against the gate-level generalized-connection network: for
// each packet the fabric must deliver to exactly the requested set,
// and each copy must carry what gcn.Carry places on that output under
// the equivalent total request.
func TestFabricMulticastExhaustiveGCN(t *testing.T) {
	const logN = 3
	n := 1 << logN
	col := newMcastCollector()
	f, err := New(Config{LogN: logN, Planes: 1, Policy: Block, VOQDepth: 8}, col.deliver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g := gcn.New(logN)
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}

	type want struct {
		src  int
		dsts []int
	}
	wants := map[int]want{}
	id := 0
	for src := 0; src < n; src++ {
		for set := 1; set < 1<<n; set++ {
			var dsts []int
			for d := 0; d < n; d++ {
				if set&(1<<d) != 0 {
					dsts = append(dsts, d)
				}
			}
			if err := f.SendMulticast(MulticastPacket[int]{Src: src, Dsts: dsts, Payload: id}); err != nil {
				t.Fatalf("send src %d set %b: %v", src, set, err)
			}
			wants[id] = want{src: src, dsts: dsts}
			id++
		}
	}
	f.Close()

	for payload, w := range wants {
		got := col.got(payload)
		sameSet(t, got, w.dsts)
		// Gate-level reference: the same fan-out as a total gcn request
		// (unrequested outputs ask for themselves).
		req := make(gcn.Request, n)
		for out := range req {
			req[out] = out
		}
		for _, d := range w.dsts {
			req[d] = w.src
		}
		plan, err := g.Connect(req)
		if err != nil {
			t.Fatalf("gcn.Connect: %v", err)
		}
		ref := gcn.Carry(plan, ident)
		for _, d := range w.dsts {
			if ref[d] != w.src {
				t.Fatalf("gcn delivers %d to output %d, fabric promised %d", ref[d], d, w.src)
			}
		}
	}
	s := f.Stats()
	if s.Mcast.Delivered != int64(len(wants)) {
		t.Fatalf("mcast delivered = %d, want %d", s.Mcast.Delivered, len(wants))
	}
	if s.Lost != 0 {
		t.Fatalf("lost = %d, want 0", s.Lost)
	}
}

// TestMulticastMixedTraffic interleaves unicast and multicast packets
// and checks both kinds arrive exactly once, multicast once per
// destination.
func TestMulticastMixedTraffic(t *testing.T) {
	const logN = 3
	n := 1 << logN
	col := newMcastCollector()
	f, err := New(Config{LogN: logN, Planes: 2, Policy: Block}, col.deliver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	wants := map[int][]int{}
	id := 0
	for round := 0; round < 200; round++ {
		src := rng.Intn(n)
		if rng.Intn(2) == 0 {
			dst := rng.Intn(n)
			if err := f.Send(Packet[int]{Src: src, Dst: dst, Payload: id}); err != nil {
				t.Fatalf("Send: %v", err)
			}
			wants[id] = []int{dst}
		} else {
			var dsts []int
			for d := 0; d < n; d++ {
				if rng.Intn(3) == 0 {
					dsts = append(dsts, d)
				}
			}
			if len(dsts) == 0 {
				dsts = []int{rng.Intn(n)}
			}
			if err := f.SendMulticast(MulticastPacket[int]{Src: src, Dsts: dsts, Payload: id}); err != nil {
				t.Fatalf("SendMulticast: %v", err)
			}
			wants[id] = dsts
		}
		id++
	}
	f.Close()
	for payload, want := range wants {
		sameSet(t, col.got(payload), want)
	}
	if s := f.Stats(); s.Lost != 0 {
		t.Fatalf("lost = %d, want 0", s.Lost)
	}
}

// TestMulticastFailover injects a stuck switch into plane 0 of a
// two-plane fabric and checks multicast traffic still arrives intact:
// frames that would misroute on the damaged plane fail over, and no
// accepted packet is lost.
func TestMulticastFailover(t *testing.T) {
	const logN = 3
	n := 1 << logN
	col := newMcastCollector()
	f, err := New(Config{LogN: logN, Planes: 2, Policy: Block}, col.deliver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.InjectFaults(0, []core.Fault{{Stage: 0, Switch: 0, StuckCrossed: true}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	wants := map[int][]int{}
	for id := 0; id < 300; id++ {
		src := rng.Intn(n)
		var dsts []int
		for d := 0; d < n; d++ {
			if rng.Intn(2) == 0 {
				dsts = append(dsts, d)
			}
		}
		if len(dsts) == 0 {
			dsts = []int{rng.Intn(n)}
		}
		if err := f.SendMulticast(MulticastPacket[int]{Src: src, Dsts: dsts, Payload: id}); err != nil {
			t.Fatalf("SendMulticast: %v", err)
		}
		wants[id] = dsts
	}
	f.Close()
	for payload, want := range wants {
		sameSet(t, col.got(payload), want)
	}
	s := f.Stats()
	if s.Lost != 0 {
		t.Fatalf("lost = %d, want 0", s.Lost)
	}
	if s.Mcast.Delivered != 300 {
		t.Fatalf("mcast delivered = %d, want 300", s.Mcast.Delivered)
	}
}

func TestRouteMulticastRound(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 2}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	n := f.N()

	m := make([]int, n)
	for out := range m {
		m[out] = 6 // full broadcast from port 6
	}
	res, err := f.RouteMulticastRound(m, 0)
	if err != nil {
		t.Fatalf("RouteMulticastRound: %v", err)
	}
	if res.Kind != engine.PlanMulticast {
		t.Fatalf("kind = %v, want multicast", res.Kind)
	}
	if res.CacheHit {
		t.Fatal("first round reported a cache hit")
	}
	res, err = f.RouteMulticastRound(m, res.Plane)
	if err != nil {
		t.Fatalf("repeat round: %v", err)
	}
	if !res.CacheHit {
		t.Fatal("repeat round on the same plane missed the plan cache")
	}

	// Rejections never touch a plane.
	if _, err := f.RouteMulticastRound(make([]int, n-1), 0); err == nil {
		t.Fatal("short mapping accepted")
	}
	idle := make([]int, n)
	for i := range idle {
		idle[i] = -1
	}
	if _, err := f.RouteMulticastRound(idle, 0); err == nil {
		t.Fatal("all-idle mapping accepted")
	}
	for _, p := range f.planes {
		if !p.healthy.Load() {
			t.Fatal("a rejected round took a plane out of rotation")
		}
	}

	// Failover: kill the preferred plane, the round lands on the other.
	if err := f.FailPlane(0); err != nil {
		t.Fatalf("FailPlane: %v", err)
	}
	res, err = f.RouteMulticastRound(m, 0)
	if err != nil {
		t.Fatalf("failover round: %v", err)
	}
	if res.Plane != 1 {
		t.Fatalf("failover served by plane %d, want 1", res.Plane)
	}
	if s := f.Stats(); s.RoundFailovers == 0 {
		t.Fatal("failover not counted")
	}
}

func TestRouteMulticastRoundFaulted(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 2}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	n := f.N()
	if err := f.InjectFaults(0, []core.Fault{{Stage: 0, Switch: 0, StuckCrossed: true}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		m := make([]int, n)
		for out := range m {
			m[out] = rng.Intn(n / 2)
		}
		if _, err := f.RouteMulticastRound(m, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestMcastFrameThatDoesNotCompile hands dispatch a mapping frame
// whose mapping cannot compile: that is a property of the frame, not
// of a plane, so its packets are counted lost while every plane stays
// in rotation with no refusal counted.
func TestMcastFrameThatDoesNotCompile(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := f.N()
	rs := newRouterServers(f.planes)
	fr := newFrame[int](n)
	for out := range fr.outSrc {
		fr.outSrc[out] = Idle
	}
	fr.outSrc[2] = n // no such source
	fr.mcast, fr.mpkts, fr.mcopies = true, 1, 1
	fr.pkts = append(fr.pkts, Packet[int]{Src: 1, Dst: 2})
	fr.srcs = append(fr.srcs, 1)
	fr.dsts = append(fr.dsts, 2)
	f.dispatch(0, &rs, fr)

	s := f.Stats()
	if s.Lost != 1 || s.Delivered != 0 || s.Failovers != 0 {
		t.Fatalf("lost %d, delivered %d, failovers %d; want 1, 0, 0", s.Lost, s.Delivered, s.Failovers)
	}
	for _, ps := range s.Planes {
		if !ps.Healthy || ps.Failovers != 0 {
			t.Fatalf("plane %d: healthy %v, refusals %d after a frame that does not compile", ps.ID, ps.Healthy, ps.Failovers)
		}
	}
}

func TestMulticastStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const logN = 4
	n := 1 << logN
	var delivered sync.Map
	f, err := NewBatched(Config{LogN: logN, Planes: 3, Policy: Block, Record: true},
		func(plane int, pkts []Packet[int]) {
			for _, p := range pkts {
				key := fmt.Sprintf("%d/%d", p.Payload, p.Dst)
				if _, loaded := delivered.LoadOrStore(key, true); loaded {
					t.Errorf("copy %s delivered twice", key)
				}
			}
		})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	const senders = 4
	const perSender = 250
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perSender; i++ {
				src := rng.Intn(n)
				var dsts []int
				for d := 0; d < n; d++ {
					if rng.Intn(4) == 0 {
						dsts = append(dsts, d)
					}
				}
				if len(dsts) == 0 {
					dsts = []int{rng.Intn(n)}
				}
				if err := f.SendMulticast(MulticastPacket[int]{Src: src, Dsts: dsts, Payload: w*perSender + i}); err != nil {
					t.Errorf("SendMulticast: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	f.Close()
	s := f.Stats()
	if s.Lost != 0 {
		t.Fatalf("lost = %d, want 0", s.Lost)
	}
	if s.Mcast.Delivered != senders*perSender {
		t.Fatalf("mcast delivered = %d, want %d", s.Mcast.Delivered, senders*perSender)
	}
	count := 0
	delivered.Range(func(any, any) bool { count++; return true })
	if int64(count) != s.Mcast.Copies {
		t.Fatalf("distinct copies = %d, stats copies = %d", count, s.Mcast.Copies)
	}
}
