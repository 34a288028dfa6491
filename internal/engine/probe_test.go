package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// TestProbeRouteGateFaithful: ProbeRoute must report what the
// self-setting switches do with the tags — core.SelfRoute's realized
// permutation — for members of F(n) (delivered exactly) and
// non-members alike (misrouted the healthy-specific way).
func TestProbeRouteGateFaithful(t *testing.T) {
	e, err := New[int](Config{LogN: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var d perm.Perm
		if trial%2 == 0 {
			d = perm.RandomF(e.Network().LogN(), rng)
		} else {
			d = perm.Random(e.Network().N(), rng)
		}
		got, err := e.ProbeRoute(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Network().SelfRoute(d).Realized
		if !got.Equal(want) {
			t.Fatalf("probe %v realized %v, gate model says %v", d, got, want)
		}
	}
}

// TestProbeRouteBypassesCache: probes must neither hit nor populate the
// plan cache — adversarial one-shot permutations would otherwise evict
// hot production plans.
func TestProbeRouteBypassesCache(t *testing.T) {
	e, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := perm.Random(e.Network().N(), rand.New(rand.NewSource(11)))
	for i := 0; i < 3; i++ {
		if _, err := e.ProbeRoute(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.PlansCached != 0 {
		t.Fatalf("probes populated the plan cache: %d plans", s.PlansCached)
	}
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("probes touched cache counters: hits %d, misses %d", s.Hits, s.Misses)
	}
	if s.Probes != 3 {
		t.Fatalf("probes counter = %d, want 3", s.Probes)
	}
	// A production route of the same permutation must still be a miss.
	data := make([]int, e.Network().N())
	if resp := e.Route(d, data); resp.Err != nil {
		t.Fatal(resp.Err)
	} else if resp.CacheHit {
		t.Fatal("first production route was a cache hit — a probe leaked a plan")
	}
}

// TestProbeRouteErrors: size and validity are rejected up front, and a
// closed engine refuses probes.
func TestProbeRouteErrors(t *testing.T) {
	e, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProbeRoute(perm.Identity(4), nil); err == nil {
		t.Fatal("want size error")
	}
	if _, err := e.ProbeRoute(perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}, nil); err == nil {
		t.Fatal("want validation error")
	}
	if _, err := e.ProbeRoute(perm.Identity(8), []core.Fault{{Stage: 5, Switch: 0}}); err == nil {
		t.Fatal("want fault range error")
	}
	if s := e.Stats(); s.Errors != 3 || s.Probes != 0 {
		t.Fatalf("errors %d, probes %d after three rejected probes, want 3 and 0", s.Errors, s.Probes)
	}
	e.Close()
	if _, err := e.ProbeRoute(perm.Identity(8), nil); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestProbeRouteBytes bounds a probe of a damaged B(8) with a recorder
// attached at 12 KB: one pass's scratch (four N-int lines) and the
// realized permutation, with no states or tag trace.
func TestProbeRouteBytes(t *testing.T) {
	const logN, probes = 8, 200
	net := core.New(logN)
	e, err := New[int](Config{LogN: logN, Recorder: netsim.NewRecorder(net, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := perm.Random(net.N(), rand.New(rand.NewSource(12)))
	faults := []core.Fault{{Stage: 3, Switch: 17, StuckCrossed: true}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probes; i++ {
		if _, err := e.ProbeRoute(d, faults); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / probes
	t.Logf("probe at N=%d: %d B allocated", net.N(), per)
	if per > 12<<10 {
		t.Fatalf("a probe allocates %d B, budget 12 KB", per)
	}
}
