package fabric

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perm"
)

func newRoundFabric(t *testing.T, logN, planes int) *Fabric[int] {
	t.Helper()
	f, err := New[int](Config{LogN: logN, Planes: planes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestRouteRound routes a named permutation round and checks the
// result plumbing: self-routed kind, miss then hit on one plane, a
// miss on the other plane (each plane keeps its own plan cache),
// counters.
func TestRouteRound(t *testing.T) {
	f := newRoundFabric(t, 4, 2)
	d := perm.BitReversal(4)

	res, err := f.RouteRound(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != 0 || res.Kind != engine.PlanSelfRouted || res.CacheHit {
		t.Fatalf("first round: %+v, want plane 0 self-routed miss", res)
	}
	res, err = f.RouteRound(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatalf("second identical round on the same plane must hit the cache: %+v", res)
	}
	res, err = f.RouteRound(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != 1 || res.CacheHit {
		t.Fatalf("same round on plane 1: %+v, want a plane 1 miss", res)
	}
	s := f.Stats()
	if s.Rounds != 3 || s.RoundFailovers != 0 {
		t.Fatalf("stats rounds=%d failovers=%d, want 3/0", s.Rounds, s.RoundFailovers)
	}
	if s.Planes[0].Rounds != 2 || s.Planes[1].Rounds != 1 {
		t.Fatalf("plane round counters %d/%d, want 2/1", s.Planes[0].Rounds, s.Planes[1].Rounds)
	}
}

// TestRouteRoundPrefer checks the prefer hint spreads rounds across
// planes, including negative and out-of-range hints.
func TestRouteRoundPrefer(t *testing.T) {
	f := newRoundFabric(t, 3, 3)
	d := perm.PerfectShuffle(3)
	for prefer, want := range map[int]int{0: 0, 1: 1, 5: 2, -1: 2} {
		res, err := f.RouteRound(d, prefer)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plane != want {
			t.Fatalf("prefer %d served by plane %d, want %d", prefer, res.Plane, want)
		}
	}
}

// TestRouteRoundFailover fails plane 0 administratively and checks a
// prefer-0 round fails over to plane 1 and is counted.
func TestRouteRoundFailover(t *testing.T) {
	f := newRoundFabric(t, 3, 2)
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	res, err := f.RouteRound(perm.BitReversal(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != 1 {
		t.Fatalf("round served by plane %d, want failover to 1", res.Plane)
	}
	if s := f.Stats(); s.RoundFailovers != 1 {
		t.Fatalf("round failovers = %d, want 1", s.RoundFailovers)
	}
}

// TestRouteRoundFaultyPlane injects a stuck switch on plane 0:
// injection takes the plane out of rotation before the fault takes
// effect, so the round fails over to plane 1 until the plane is
// repaired.
func TestRouteRoundFaultyPlane(t *testing.T) {
	f := newRoundFabric(t, 3, 2)
	d := perm.BitReversal(3)
	if err := f.InjectFaults(0, []core.Fault{{Stage: 2, Switch: 1, StuckCrossed: true}}); err != nil {
		t.Fatal(err)
	}
	res, err := f.RouteRound(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != 1 {
		t.Fatalf("round served by damaged plane %d, want failover to 1", res.Plane)
	}
	if h := f.Health(); h.PlanesHealthy != 1 {
		t.Fatalf("planes healthy = %d after injection, want 1", h.PlanesHealthy)
	}
	if err := f.RestorePlane(0); err != nil {
		t.Fatal(err)
	}
	if res, err := f.RouteRound(d, 0); err != nil || res.Plane != 0 {
		t.Fatalf("repaired plane 0 not back in rotation: plane %d, err %v", res.Plane, err)
	}
}

// TestRouteRoundErrors covers the reject paths: wrong size, invalid
// permutation, no healthy plane, closed fabric.
func TestRouteRoundErrors(t *testing.T) {
	f := newRoundFabric(t, 3, 1)
	if _, err := f.RouteRound(perm.Identity(4), 0); err == nil {
		t.Fatal("size-4 round on an N=8 fabric must be rejected")
	}

	// A duplicate destination is the caller's error, not a plane
	// fault: it must be rejected without taking any plane out of
	// rotation.
	two := newRoundFabric(t, 3, 2)
	if _, err := two.RouteRound(perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}, 0); err == nil {
		t.Fatal("round with a duplicate destination must be rejected")
	}
	if h := two.Health(); h.PlanesHealthy != 2 {
		t.Fatalf("planes healthy = %d after an invalid round, want 2", h.PlanesHealthy)
	}
	if _, err := two.RouteRound(perm.Identity(8), 0); err != nil {
		t.Fatalf("valid round after an invalid one: %v", err)
	}
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RouteRound(perm.Identity(8), 0); err == nil {
		t.Fatal("round with no healthy plane must fail")
	}
	if err := f.RestorePlane(0); err != nil {
		t.Fatal(err)
	}

	g := newRoundFabric(t, 3, 1)
	g.Close()
	if _, err := g.RouteRound(perm.Identity(8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("round on closed fabric: %v, want ErrClosed", err)
	}
}
