package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flowKey identifies one (src, dst) flow.
type flowKey struct{ src, dst int }

// planeLog records, per flow, the set of planes that delivered its
// packets, via a NewBatched callback.
type planeLog struct {
	mu        sync.Mutex
	seen      map[flowKey]map[int]bool
	delivered atomic.Int64
}

func newPlaneLog() *planeLog { return &planeLog{seen: make(map[flowKey]map[int]bool)} }

func (l *planeLog) batch(plane int, pkts []Packet[int]) {
	l.mu.Lock()
	for _, p := range pkts {
		k := flowKey{p.Src, p.Dst}
		if l.seen[k] == nil {
			l.seen[k] = make(map[int]bool)
		}
		l.seen[k][plane] = true
	}
	l.mu.Unlock()
	l.delivered.Add(int64(len(pkts)))
}

func (l *planeLog) reset() {
	l.mu.Lock()
	l.seen = make(map[flowKey]map[int]bool)
	l.mu.Unlock()
}

// soleDeliverer returns the one plane that delivered flow k, failing the
// test when the flow was split across planes or never delivered.
func (l *planeLog) soleDeliverer(t *testing.T, k flowKey) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	planes := l.seen[k]
	if len(planes) != 1 {
		t.Fatalf("flow (%d -> %d) delivered by planes %v, want exactly one", k.src, k.dst, planes)
	}
	for id := range planes {
		return id
	}
	return -1
}

func (l *planeLog) awaitDrain(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: delivered %d of %d", l.delivered.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlowAffinityAcrossFailover is the property test for flow-hash
// plane pinning: every packet of a (src, dst) flow is delivered by the
// plane PlaneFor predicts; failing a plane moves only the flows it was
// serving (rendezvous hashing keeps every other flow in place); and
// restoring the plane returns exactly its old flows to it.
func TestFlowAffinityAcrossFailover(t *testing.T) {
	const (
		logN    = 4 // N = 16
		planes  = 3
		perFlow = 3
		victim  = 1
	)
	n := 1 << logN
	log := newPlaneLog()
	f, err := NewBatched[int](Config{LogN: logN, Planes: planes, VOQDepth: 8, Policy: Block}, log.batch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	flows := make([]flowKey, 0, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			flows = append(flows, flowKey{src, dst})
		}
	}
	home := make(map[flowKey]int, len(flows))
	for _, k := range flows {
		id, err := f.PlaneFor(k.src, k.dst)
		if err != nil {
			t.Fatal(err)
		}
		home[k] = id
	}

	sendAll := func() int64 {
		sent := int64(0)
		for _, k := range flows {
			for i := 0; i < perFlow; i++ {
				if err := f.Send(Packet[int]{Src: k.src, Dst: k.dst, Payload: i}); err != nil {
					t.Fatalf("send (%d -> %d): %v", k.src, k.dst, err)
				}
				sent++
			}
		}
		return sent
	}

	// Phase 1: healthy fabric. Every flow lands wholly on its home plane.
	total := sendAll()
	log.awaitDrain(t, total)
	spread := make(map[int]int)
	for _, k := range flows {
		id := log.soleDeliverer(t, k)
		if id != home[k] {
			t.Fatalf("flow (%d -> %d) delivered by plane %d, PlaneFor says %d", k.src, k.dst, id, home[k])
		}
		spread[id]++
	}
	for id := 0; id < planes; id++ {
		if spread[id] == 0 {
			t.Fatalf("rendezvous hash left plane %d with no flows: %v", id, spread)
		}
	}

	// Phase 2: fail one plane. Flows homed elsewhere must not move;
	// the victim's flows rehash to survivors and stay whole there.
	if err := f.FailPlane(victim); err != nil {
		t.Fatal(err)
	}
	rehomed := make(map[flowKey]int, len(flows))
	for _, k := range flows {
		id, err := f.PlaneFor(k.src, k.dst)
		if err != nil {
			t.Fatal(err)
		}
		rehomed[k] = id
		if id == victim {
			t.Fatalf("flow (%d -> %d) still pinned to failed plane %d", k.src, k.dst, victim)
		}
		if home[k] != victim && id != home[k] {
			t.Fatalf("failing plane %d moved unrelated flow (%d -> %d): %d -> %d",
				victim, k.src, k.dst, home[k], id)
		}
	}
	log.reset()
	total += sendAll()
	log.awaitDrain(t, total)
	for _, k := range flows {
		if id := log.soleDeliverer(t, k); id != rehomed[k] {
			t.Fatalf("after failover, flow (%d -> %d) delivered by plane %d, want %d", k.src, k.dst, id, rehomed[k])
		}
	}

	// Phase 3: restore. Rendezvous hashing hands the plane back exactly
	// the flows it served before, and traffic follows.
	if err := f.RestorePlane(victim); err != nil {
		t.Fatal(err)
	}
	for _, k := range flows {
		id, err := f.PlaneFor(k.src, k.dst)
		if err != nil {
			t.Fatal(err)
		}
		if id != home[k] {
			t.Fatalf("after restore, flow (%d -> %d) pinned to plane %d, want original %d", k.src, k.dst, id, home[k])
		}
	}
	log.reset()
	total += sendAll()
	log.awaitDrain(t, total)
	for _, k := range flows {
		if id := log.soleDeliverer(t, k); id != home[k] {
			t.Fatalf("after restore, flow (%d -> %d) delivered by plane %d, want %d", k.src, k.dst, id, home[k])
		}
	}
}
