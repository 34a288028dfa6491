package fabric

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// TestProbePlaneHealthy: on an undamaged plane a probe must realize
// exactly what the gate model's self-routing pass realizes — for F(n)
// members and misrouting non-members alike — and count into the
// plane engine's probes counter without touching its plan cache.
func TestProbePlaneHealthy(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 2}, func(Packet[int]) {})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net := core.New(3)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := perm.Random(net.N(), rng)
		got, err := f.ProbePlane(0, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := net.SelfRoute(d).Realized; !got.Equal(want) {
			t.Fatalf("probe %v realized %v, gate model says %v", d, got, want)
		}
	}
	s := f.Stats()
	if s.Planes[0].Engine.Probes != 20 {
		t.Fatalf("plane 0 probes = %d, want 20", s.Planes[0].Engine.Probes)
	}
	if s.Planes[0].Engine.PlansCached != 0 {
		t.Fatalf("probes populated plane 0's plan cache: %d plans", s.Planes[0].Engine.PlansCached)
	}
}

// TestProbePlaneFaulty covers every single stuck fault at N=8 (2·5·4 =
// 40) over 64 seeded permutations each. Probes of the damaged plane
// must match core.RouteWithFaults and the netsim hardware view
// (diagnose.NewSimOracle) exactly, and the plane recorder's fault hits
// at the stuck coordinate must equal the number of probes whose tag
// wanted the other state — counted independently by a recording netsim
// pass over the same vectors.
func TestProbePlaneFaulty(t *testing.T) {
	const logN, probes = 3, 64
	f, err := New[int](Config{LogN: logN, Planes: 2, Record: true}, func(Packet[int]) {})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net := core.New(logN)
	rng := rand.New(rand.NewSource(22))
	rec := f.PlaneRecorder(1)
	faults := 0
	for stage := 0; stage < net.Stages(); stage++ {
		for sw := 0; sw < net.SwitchesPerStage(); sw++ {
			for _, crossed := range []bool{false, true} {
				fault := []core.Fault{{Stage: stage, Switch: sw, StuckCrossed: crossed}}
				if err := f.InjectFaults(1, fault); err != nil {
					t.Fatal(err)
				}
				faults++
				sim := diagnose.NewSimOracle(net, fault)
				vectors := make([]perm.Perm, probes)
				before := rec.Snapshot().Counts[stage].FaultHits[sw]
				for k := range vectors {
					d := perm.Random(net.N(), rng)
					vectors[k] = d
					got, err := f.ProbePlane(1, d)
					if err != nil {
						t.Fatal(err)
					}
					if want := net.RouteWithFaults(d, fault, nil).Realized; !got.Equal(want) {
						t.Fatalf("fault %+v: probe %v realized %v, core says %v", fault[0], d, got, want)
					}
					if want, _ := sim.Probe(d); !got.Equal(want) {
						t.Fatalf("fault %+v: probe %v realized %v, netsim says %v", fault[0], d, got, want)
					}
				}
				hw := netsim.NewWithFaults(net, fault)
				hwRec := netsim.NewRecorder(net, 1)
				hw.SetRecorder(hwRec)
				hw.Run(vectors)
				want := hwRec.StageTotals(stage).FaultHits
				if got := rec.Snapshot().Counts[stage].FaultHits[sw] - before; got != want {
					t.Fatalf("fault %+v: %d fault hits recorded over %d probes, hardware view says %d",
						fault[0], got, probes, want)
				}
			}
		}
	}
	if faults != 40 {
		t.Fatalf("covered %d single faults, want 40", faults)
	}
	// Probes move no payload: the damaged plane recorded no traversals.
	for s := 0; s < net.Stages(); s++ {
		if tot := rec.StageTotals(s); tot.Traversed != 0 {
			t.Fatalf("probes added %d traversals at stage %d", tot.Traversed, s)
		}
	}
	// The undamaged sibling keeps answering healthily.
	d := perm.Random(net.N(), rng)
	got, err := f.ProbePlane(0, d)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.SelfRoute(d).Realized; !got.Equal(want) {
		t.Fatalf("healthy plane 0 contaminated: %v vs %v", got, want)
	}
	if tot := f.PlaneRecorder(0).StageTotals(0); tot.FaultHits != 0 {
		t.Fatalf("healthy plane 0 recorded fault hits: %+v", tot)
	}
}

// TestProbePlaneDuplicateFaultHits: a fault list that names one switch
// twice counts the fault hits netsim's hardware view counts. The later
// fault holds, and a probe hits it once when the tags decided the other
// state. The identity's tag 2 sets stage 0's switch 1 straight.
func TestProbePlaneDuplicateFaultHits(t *testing.T) {
	const logN = 3
	net := core.New(logN)
	id := perm.Identity(net.N())
	for _, c := range []struct {
		faults []core.Fault
		hits   int64
	}{
		{[]core.Fault{{Stage: 0, Switch: 1, StuckCrossed: true}, {Stage: 0, Switch: 1}}, 0},
		{[]core.Fault{{Stage: 0, Switch: 1, StuckCrossed: true}, {Stage: 0, Switch: 1, StuckCrossed: true}}, 1},
	} {
		f, err := New[int](Config{LogN: logN, Planes: 2, Record: true}, func(Packet[int]) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.InjectFaults(1, c.faults); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProbePlane(1, id); err != nil {
			t.Fatal(err)
		}
		hw := netsim.NewWithFaults(net, c.faults)
		hwRec := netsim.NewRecorder(net, 1)
		hw.SetRecorder(hwRec)
		hw.RouteOne(id)
		got := f.PlaneRecorder(1).Snapshot().Counts[0].FaultHits
		want := hwRec.Snapshot().Counts[0].FaultHits
		if got[1] != c.hits || want[1] != c.hits {
			t.Errorf("faults %+v: plane counted %d hits, netsim %d, want %d", c.faults, got[1], want[1], c.hits)
		}
		f.Close()
	}
}

// TestProbePlaneErrors: plane range and probe validity are rejected.
func TestProbePlaneErrors(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 1}, func(Packet[int]) {})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ProbePlane(1, perm.Identity(8)); err == nil {
		t.Fatal("want error for unknown plane")
	}
	if _, err := f.ProbePlane(0, perm.Identity(4)); err == nil {
		t.Fatal("want size error")
	}
	if err := f.InjectFaults(0, []core.Fault{{Stage: 0, Switch: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProbePlane(0, perm.Identity(4)); err == nil {
		t.Fatal("want size error on damaged plane")
	}
	if _, err := f.ProbePlane(0, perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("want validation error on damaged plane")
	}
}

// TestInjectFaultsValidates: out-of-range fault coordinates are
// operator input and must come back as errors, not reach the panic in
// core's fault model at probe time; a rejected injection must
// leave the plane healthy and undamaged.
func TestInjectFaultsValidates(t *testing.T) {
	f, err := New[int](Config{LogN: 3, Planes: 1}, func(Packet[int]) {})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, bad := range []core.Fault{
		{Stage: -1, Switch: 0},
		{Stage: 5, Switch: 0},
		{Stage: 0, Switch: -1},
		{Stage: 0, Switch: 4},
	} {
		if err := f.InjectFaults(0, []core.Fault{bad}); err == nil {
			t.Fatalf("fault %+v accepted", bad)
		}
	}
	if h := f.Health(); h.PlanesHealthy != 1 {
		t.Fatalf("rejected injections damaged the plane: %+v", h)
	}
	if got, err := f.ProbePlane(0, perm.Identity(8)); err != nil || !got.Equal(perm.Identity(8)) {
		t.Fatalf("plane not pristine after rejected injections: %v, %v", got, err)
	}
}

// TestDiagnoseOverFabricProbe closes the loop the subsystem exists
// for: inject a fault into a live fabric plane, run a diagnosis
// session whose oracle is ProbePlane, and localize the stuck switch —
// while the plane is out of rotation and production traffic is
// unaffected.
func TestDiagnoseOverFabricProbe(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	f, err := New[int](Config{LogN: 3, Planes: 2, Policy: Block}, func(Packet[int]) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	fault := core.Fault{Stage: 3, Switch: 2, StuckCrossed: false}
	if err := f.InjectFaults(1, []core.Fault{fault}); err != nil {
		t.Fatal(err)
	}
	p, err := diagnose.New(diagnose.Config{Net: core.New(3), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Diagnose(diagnose.OracleFunc(func(d perm.Perm) (perm.Perm, error) {
		return f.ProbePlane(1, d)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rank, found := rep.RankOf([]core.Fault{fault}); !found || rank != 1 {
		t.Fatalf("injected fault ranked %d (found %v), want 1; report %+v", rank, found, rep)
	}
	if rep.Healthy {
		t.Fatal("healthy hypothesis survived against a damaged plane")
	}
	// Production traffic kept flowing around the damaged plane while the
	// probes ran.
	rng := rand.New(rand.NewSource(9))
	const pkts = 64
	for i := 0; i < pkts; i++ {
		if err := f.Send(Packet[int]{Src: rng.Intn(8), Dst: rng.Intn(8)}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if delivered != pkts {
		t.Fatalf("delivered %d of %d packets", delivered, pkts)
	}
	if s := f.Stats(); s.Lost != 0 {
		t.Fatalf("lost %d packets", s.Lost)
	}
}

// TestMulticastWithInjectedFault drives fan-out traffic at a fabric
// whose plane 0 carries a stuck switch: injection takes the plane out
// of rotation immediately, so every mapping frame homed there must
// fail over through the four-state copy-network path of the surviving
// plane and every multicast copy must still arrive exactly once — the
// stuck-fault interaction with multicast switching. (The recorder-
// level fault-hit/bcast_flips interplay is pinned by netsim's
// TestFaultHitsCoexistWithMcastCounters.)
func TestMulticastWithInjectedFault(t *testing.T) {
	col := newMcastCollector()
	f, err := New(Config{LogN: 3, Planes: 2, Policy: Block, Record: true}, col.deliver)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFaults(0, []core.Fault{{Stage: 2, Switch: 0, StuckCrossed: true}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const pkts = 60
	want := make(map[int][]int, pkts)
	for i := 0; i < pkts; i++ {
		k := 1 + rng.Intn(4)
		var dsts []int
		seen := make(map[int]bool)
		for len(dsts) < k {
			if d := rng.Intn(8); !seen[d] {
				seen[d] = true
				dsts = append(dsts, d)
			}
		}
		want[i] = dsts
		if err := f.SendMulticast(MulticastPacket[int]{Src: rng.Intn(8), Dsts: dsts, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	for payload, dsts := range want {
		sameSet(t, col.got(payload), dsts)
	}
	s := f.Stats()
	if s.Lost != 0 {
		t.Fatalf("lost %d packets", s.Lost)
	}
	if s.Mcast.Delivered != pkts {
		t.Fatalf("mcast delivered %d of %d", s.Mcast.Delivered, pkts)
	}
	// The damaged plane is out of rotation from injection, so its
	// engine served nothing; the sibling carried the whole load.
	if h := f.Health(); h.PlanesHealthy != 1 {
		t.Fatalf("planes healthy = %d, want 1", h.PlanesHealthy)
	}
	if s.Planes[1].Frames == 0 {
		t.Fatal("surviving plane served no frames")
	}
}
