package fabric

import (
	"errors"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perm"
)

// TestFabricConcurrentStress is the data-race audit for the stats and
// control plane: while senders offer packet traffic and round clients
// drive RouteRound, other goroutines concurrently snapshot Stats,
// scrape the metrics registry, probe planes, inject faults, and
// fail/restore planes.
// The test asserts no operation errors unexpectedly and, under
// `go test -race`, that every counter, histogram, and health bit on
// those paths is accessed atomically.
func TestFabricConcurrentStress(t *testing.T) {
	const (
		logN    = 4 // N = 16
		planes  = 3
		senders = 4
		perSend = 400
		rounds  = 120
	)
	var delivered atomic.Int64
	f, err := New[int](Config{LogN: logN, Planes: planes, VOQDepth: 8},
		func(Packet[int]) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.Register(reg)

	// traffic holds the finite workloads (senders, round clients);
	// background holds the unbounded ones (snapshots, chaos), which run
	// until the traffic drains and stop closes.
	var traffic, background sync.WaitGroup
	stop := make(chan struct{})

	// Packet traffic.
	var accepted atomic.Int64
	for s := 0; s < senders; s++ {
		traffic.Add(1)
		go func(s int) {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			n := f.N()
			for k := 0; k < perSend; k++ {
				p := Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: k}
				switch err := f.Send(p); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrBackpressure):
				default:
					t.Errorf("send: %v", err)
				}
			}
		}(s)
	}

	// Round traffic, spread across preferred planes. A round may hit a
	// plane the chaos goroutine just failed; only no-healthy-plane is
	// an acceptable error.
	for w := 0; w < 2; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for k := 0; k < rounds; k++ {
				d := perm.Random(1<<logN, rng)
				if _, err := f.RouteRound(d, k%planes); err != nil &&
					!errors.Is(err, ErrPlaneDown) {
					t.Errorf("round: %v", err)
				}
			}
		}(w)
	}

	// Stats snapshots and registry scrapes racing the writers.
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.Stats()
			if s.Accepted < 0 || s.Stages.VOQWait.Count < 0 {
				t.Error("negative snapshot")
			}
			rec := httptest.NewRecorder()
			reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Errorf("scrape: %d", rec.Code)
			}
		}
	}()

	// Diagnosis probes racing the chaos below on the planes it churns:
	// whether a probe sees the plane damaged, healed or failed, it must
	// answer with a valid permutation of N.
	background.Add(1)
	go func() {
		defer background.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := f.ProbePlane(1+rng.Intn(planes-1), perm.Random(1<<logN, rng))
			if err != nil {
				t.Errorf("probe: %v", err)
				return
			}
			if len(got) != 1<<logN || got.Validate() != nil {
				t.Errorf("probe realized %v, not a permutation of %d", got, 1<<logN)
				return
			}
		}
	}()

	// Chaos: fault injection and plane failover churn. Plane 0 is left
	// alone so at least one plane stays healthy throughout.
	background.Add(1)
	go func() {
		defer background.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 1 + rng.Intn(planes-1)
			switch i % 3 {
			case 0:
				fault := core.Fault{Stage: rng.Intn(2*logN - 1), Switch: rng.Intn(1 << (logN - 1))}
				if err := f.InjectFaults(id, []core.Fault{fault}); err != nil {
					t.Errorf("inject: %v", err)
				}
			case 1:
				if err := f.FailPlane(id); err != nil {
					t.Errorf("fail: %v", err)
				}
			case 2:
				if err := f.RestorePlane(id); err != nil {
					t.Errorf("restore: %v", err)
				}
			}
		}
	}()

	traffic.Wait()
	close(stop)
	background.Wait()
	f.Close()

	s := f.Stats()
	if s.Delivered+s.Lost != accepted.Load() {
		t.Fatalf("accepted %d but delivered %d + lost %d", accepted.Load(), s.Delivered, s.Lost)
	}
	if delivered.Load() != s.Delivered {
		t.Fatalf("deliver callback saw %d, counter says %d", delivered.Load(), s.Delivered)
	}
}

// TestVOQShardConcurrentStress hammers one ingress shard directly —
// the per-flow queues, nonempty bitmap, parking lot, and seal protocol
// — with concurrent producers (both policies), a consumer running
// buildFrame, and a snapshot reader, so `go test -race` audits the
// whole producer/consumer protocol without the planes in the way. The
// invariants: after seal and final drain, every accepted packet was
// extracted exactly once, and each producer's packets left every flow
// in the order it sent them.
//
// The uniform case spreads traffic over all 64 flows of a depth-4
// shard. The hot case aims every producer at two flows of a depth-64
// shard and holds the consumer back until both queues are full, so
// each queue grows 2→64 under producer contention and the Block
// producers then park on it while the consumer drains.
func TestVOQShardConcurrentStress(t *testing.T) {
	const (
		n         = 8
		producers = 4
		perProd   = 3000
	)
	hot := [2][2]int{{1, 6}, {3, 2}}
	for _, tc := range []struct {
		name  string
		depth int
		hot   bool
	}{
		{"uniform-depth4", 4, false},
		{"hot-depth64", 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := newVOQShard[int](n, tc.depth, nil)
			bound := ringDepth(tc.depth)

			// accepted[id] is written only by the producer that owns id;
			// seen only by the consumer.
			accepted := make([]bool, producers*perProd)
			seen := make([]bool, producers*perProd)
			stop := make(chan struct{})
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				if tc.hot {
					for v.occupancy() < int64(2*bound) {
						runtime.Gosched()
					}
				}
				last := make(map[[3]int]int) // (src, dst, producer) → last id
				fr := newFrame[int](n)
				take := func() bool {
					if !v.buildFrame(fr) {
						return false
					}
					for _, p := range fr.pkts {
						if seen[p.Payload] {
							t.Errorf("packet %d extracted twice", p.Payload)
						}
						seen[p.Payload] = true
						key := [3]int{p.Src, p.Dst, p.Payload / perProd}
						if prev, ok := last[key]; ok && prev >= p.Payload {
							t.Errorf("flow %d→%d: producer %d's packet %d left after %d",
								p.Src, p.Dst, key[2], p.Payload, prev)
						}
						last[key] = p.Payload
					}
					return true
				}
				for {
					if take() {
						continue
					}
					select {
					case <-v.notify:
					case <-stop:
						for take() {
						}
						return
					}
				}
			}()

			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if occ := v.occupancy(); occ < 0 {
						t.Errorf("negative occupancy %d", occ)
					}
					for _, c := range v.snapshot() {
						if c.Occupied < 0 || c.Enqueued < c.Occupied {
							t.Errorf("inconsistent counters: %+v", c)
						}
					}
				}
			}()

			var wg sync.WaitGroup
			for s := 0; s < producers; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(40 + s)))
					policy := DropNew
					if s%2 == 1 {
						policy = Block
					}
					for k := 0; k < perProd; k++ {
						src, dst := rng.Intn(n), rng.Intn(n)
						if tc.hot {
							f := hot[rng.Intn(2)]
							src, dst = f[0], f[1]
						}
						id := s*perProd + k
						switch err := v.enqueue(Packet[int]{Src: src, Dst: dst, Payload: id}, policy); {
						case err == nil:
							accepted[id] = true
						case errors.Is(err, ErrBackpressure) && policy == DropNew:
						default:
							t.Errorf("enqueue: %v", err)
						}
					}
				}(s)
			}
			wg.Wait()
			v.seal()
			close(stop)
			<-consumerDone
			<-readerDone

			for id := range accepted {
				if accepted[id] != seen[id] {
					t.Fatalf("packet %d: accepted %v but extracted %v", id, accepted[id], seen[id])
				}
			}
			if occ := v.occupancy(); occ != 0 {
				t.Fatalf("shard should be empty after drain, occupancy %d", occ)
			}
			if tc.hot {
				for _, f := range hot {
					if got := len(v.ring(f[0], f[1]).slots); got != bound {
						t.Fatalf("hot flow %d→%d grew to %d slots, want %d", f[0], f[1], got, bound)
					}
				}
			}
			if err := v.enqueue(Packet[int]{Src: 0, Dst: 0}, DropNew); !errors.Is(err, ErrClosed) {
				t.Fatalf("sealed shard must refuse senders, got %v", err)
			}
		})
	}
}
