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
// result plumbing: self-routed kind, miss then hit, counters.
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
	s := f.Stats()
	if s.Rounds != 2 || s.RoundFailovers != 0 {
		t.Fatalf("stats rounds=%d failovers=%d, want 2/0", s.Rounds, s.RoundFailovers)
	}
	if s.Planes[0].Rounds != 2 || s.Planes[1].Rounds != 0 {
		t.Fatalf("plane round counters %d/%d, want 2/0", s.Planes[0].Rounds, s.Planes[1].Rounds)
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

// TestPrewarmRound warms a plan on plane 1 and checks the next round
// there is a cache hit while plane 0 still misses.
func TestPrewarmRound(t *testing.T) {
	f := newRoundFabric(t, 4, 2)
	d := perm.MatrixTranspose(4)
	f.PrewarmRound(d, 1)

	res, err := f.RouteRound(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("round after PrewarmRound on the same plane must be a cache hit")
	}
	res, err = f.RouteRound(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("plane 0 was never warmed; its round must miss")
	}
	if pw := f.Stats().Planes[1].Engine.Prewarms; pw != 1 {
		t.Fatalf("plane 1 prewarms = %d, want 1", pw)
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

// TestRouteRoundErrors covers the reject paths: wrong size, no healthy
// plane, closed fabric.
func TestRouteRoundErrors(t *testing.T) {
	f := newRoundFabric(t, 3, 1)
	if _, err := f.RouteRound(perm.Identity(4), 0); err == nil {
		t.Fatal("size-4 round on an N=8 fabric must be rejected")
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
	g.PrewarmRound(perm.Identity(8), 0) // must not panic
}

// TestRouteRounds pipelines a run of rounds through one plane's queue
// and checks ordering, verification, cache hits on repeats, and the
// counters — the batch analogue of TestRouteRound.
func TestRouteRounds(t *testing.T) {
	f := newRoundFabric(t, 4, 2)
	n := 1 << 4
	dests := make([]perm.Perm, 0, n+2)
	for k := 0; k < n; k++ {
		dests = append(dests, perm.CyclicShift(4, k))
	}
	// Two repeats of the first shift: served from the plan cache.
	dests = append(dests, perm.CyclicShift(4, 0), perm.CyclicShift(4, 1))

	out, err := f.RouteRounds(dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(dests) {
		t.Fatalf("got %d results, want %d", len(out), len(dests))
	}
	for i, res := range out {
		if res.Plane != 1 {
			t.Fatalf("round %d served by plane %d, want 1", i, res.Plane)
		}
		if res.Kind != engine.PlanSelfRouted {
			t.Fatalf("round %d kind %v, want self-routed (cyclic shifts are inverse-omega)", i, res.Kind)
		}
	}
	if !out[n].CacheHit || !out[n+1].CacheHit {
		t.Fatalf("repeated shifts must hit the plan cache: %+v %+v", out[n], out[n+1])
	}
	s := f.Stats()
	if s.Rounds != int64(len(dests)) || s.RoundFailovers != 0 {
		t.Fatalf("stats rounds=%d failovers=%d, want %d/0", s.Rounds, s.RoundFailovers, len(dests))
	}
	if s.Planes[1].Rounds != int64(len(dests)) {
		t.Fatalf("plane 1 rounds = %d, want %d", s.Planes[1].Rounds, len(dests))
	}
}

// TestRouteRoundsFailover fails the preferred plane and checks the
// whole run lands on the survivor, in order.
func TestRouteRoundsFailover(t *testing.T) {
	f := newRoundFabric(t, 3, 2)
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	dests := []perm.Perm{perm.BitReversal(3), perm.PerfectShuffle(3), perm.CyclicShift(3, 5)}
	out, err := f.RouteRounds(dests, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Plane != 1 {
			t.Fatalf("round %d served by plane %d, want failover to 1", i, res.Plane)
		}
	}
	if s := f.Stats(); s.RoundFailovers != 1 {
		t.Fatalf("round failovers = %d, want 1 (one batched handoff)", s.RoundFailovers)
	}
}

// TestRouteRoundsErrors covers the reject paths: wrong size anywhere in
// the run, no healthy plane, closed fabric, empty run.
func TestRouteRoundsErrors(t *testing.T) {
	f := newRoundFabric(t, 3, 1)
	if _, err := f.RouteRounds([]perm.Perm{perm.Identity(8), perm.Identity(4)}, 0); err == nil {
		t.Fatal("a size-4 round anywhere in the run must be rejected")
	}
	if out, err := f.RouteRounds(nil, 0); err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v (%d results), want clean no-op", err, len(out))
	}
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RouteRounds([]perm.Perm{perm.Identity(8)}, 0); err == nil {
		t.Fatal("run with no healthy plane must fail")
	}

	g := newRoundFabric(t, 3, 1)
	g.Close()
	if _, err := g.RouteRounds([]perm.Perm{perm.Identity(8)}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("run on closed fabric: %v, want ErrClosed", err)
	}
}
