package fabric

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// TestFabricRecorderFrames sends a full permutation's worth of packets
// through a recording fabric and checks the per-plane flight recorder:
// frame traffic counts traversals along real packets' paths only — one
// switch per stage per delivered packet, never the filler ports — and
// no frame is accounted as a full-vector pass.
func TestFabricRecorderFrames(t *testing.T) {
	const logN = 3
	n := 1 << logN
	var mu sync.Mutex
	delivered := 0
	done := make(chan struct{})
	f, err := New[int](Config{LogN: logN, Planes: 1, Record: true}, func(p Packet[int]) {
		mu.Lock()
		if delivered++; delivered == n {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	d := perm.BitReversal(logN)
	for src, dst := range d {
		if err := f.Send(Packet[int]{Src: src, Dst: dst, Payload: src}); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	rec := f.PlaneRecorder(0)
	if rec == nil {
		t.Fatal("Record: true must attach a plane recorder")
	}
	snap := rec.Snapshot()
	if snap.FullVectors != 0 {
		t.Fatalf("frame traffic recorded %d full vectors, want 0", snap.FullVectors)
	}
	for s := 0; s < snap.Stages; s++ {
		var sum int64
		for _, c := range snap.Counts[s].Traversed {
			sum += c
		}
		if sum != int64(n) {
			t.Fatalf("stage %d traversals = %d, want one per delivered packet = %d", s, sum, n)
		}
	}
	if f.PlaneRecorder(-1) != nil || f.PlaneRecorder(1) != nil {
		t.Fatal("out-of-range PlaneRecorder must be nil")
	}

	off, err := New[int](Config{LogN: logN, Planes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.PlaneRecorder(0) != nil {
		t.Fatal("recorder must be nil when Config.Record is off")
	}
}

// TestFabricRecorderFaultHits injects a stuck switch and checks a probe
// of the damaged plane lands its fault hit at exactly the damaged
// coordinate, without contributing traversals the serving engine would
// then double count.
func TestFabricRecorderFaultHits(t *testing.T) {
	const logN = 2
	f, err := New[int](Config{LogN: logN, Planes: 2, Record: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fault := core.Fault{Stage: 0, Switch: 0, StuckCrossed: true}
	if err := f.InjectFaults(0, []core.Fault{fault}); err != nil {
		t.Fatal(err)
	}
	// Identity demands switch (0,0) straight: a probe of plane 0 must
	// record the hit at exactly the damaged coordinate.
	if _, err := f.ProbePlane(0, perm.Identity(1<<logN)); err != nil {
		t.Fatal(err)
	}
	// Rounds offered to the damaged plane fail over to plane 1.
	res, err := f.RouteRound(perm.Identity(1<<logN), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != 1 {
		t.Fatalf("round served by plane %d, want failover to 1", res.Plane)
	}

	rec0 := f.PlaneRecorder(0)
	if got := rec0.StageTotals(fault.Stage).FaultHits; got != 1 {
		t.Fatalf("fault hits at stage %d = %d, want 1", fault.Stage, got)
	}
	snap := rec0.Snapshot()
	for s := 0; s < snap.Stages; s++ {
		for i, c := range snap.Counts[s].FaultHits {
			if c != 0 && (s != fault.Stage || i != fault.Switch) {
				t.Fatalf("fault hit recorded at (%d,%d), only (%d,%d) is damaged", s, i, fault.Stage, fault.Switch)
			}
		}
		// Plane 0 served nothing: the probe must not add traversals.
		if tot := rec0.StageTotals(s); tot.Traversed != 0 {
			t.Fatalf("probe added %d traversals at stage %d", tot.Traversed, s)
		}
	}
	rec1 := f.PlaneRecorder(1)
	if rec1.Snapshot().FullVectors != 1 {
		t.Fatalf("plane 1 should have recorded the round as one full vector")
	}
}

// TestPlanesShareOneNetwork checks every plane engine of a fabric
// routes over one B(n), the one core.New hands out.
func TestPlanesShareOneNetwork(t *testing.T) {
	f, err := New[int](Config{LogN: 4, Planes: 3, Record: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net := core.New(4)
	for _, p := range f.planes {
		if p.eng.Network() != net {
			t.Fatalf("plane %d holds its own copy of B(4)", p.id)
		}
	}
}

// TestFabricHealth checks the readiness view tracks plane rotation.
func TestFabricHealth(t *testing.T) {
	const logN = 2
	f, err := New[int](Config{LogN: logN, Planes: 3, VOQDepth: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	h := f.Health()
	if h.PlanesTotal != 3 || h.PlanesHealthy != 3 {
		t.Fatalf("fresh fabric health = %+v", h)
	}
	if want := int64(4 * 4 * 4); h.VOQCapacity != want {
		t.Fatalf("VOQ capacity = %d, want n*n*depth = %d", h.VOQCapacity, want)
	}
	if err := f.FailPlane(1); err != nil {
		t.Fatal(err)
	}
	if h := f.Health(); h.PlanesHealthy != 2 {
		t.Fatalf("after FailPlane health = %+v", h)
	}
	if err := f.RestorePlane(1); err != nil {
		t.Fatal(err)
	}
	if h := f.Health(); h.PlanesHealthy != 3 {
		t.Fatalf("after RestorePlane health = %+v", h)
	}
}
