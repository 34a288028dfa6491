package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// TestTimedArrivalIsGateDelay: on self-timed hardware with all inputs
// injected at t=0, every output arrives at exactly 2 log N - 1 — the
// paper's transmission-delay claim, observed rather than computed.
func TestTimedArrivalIsGateDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(7)
		net := core.New(n)
		e := New(net)
		d := perm.Random(1<<uint(n), rng)
		res, _ := e.RouteOne(d)
		for y, at := range res.ArrivalTime {
			if at != net.GateDelay() {
				t.Fatalf("n=%d: output %d arrived at t=%d, want %d", n, y, at, net.GateDelay())
			}
		}
	}
}

// TestTimedMatchesSyncAllModes: the concurrent engine agrees with the
// synchronous evaluator in every mode.
func TestTimedMatchesSyncAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(262))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		net := core.New(n)
		e := New(net)
		d := perm.Random(1<<uint(n), rng)

		selfSync := net.SelfRoute(d)
		selfConc, _ := e.RouteOne(d)
		if !selfConc.Realized.Equal(selfSync.Realized) {
			t.Fatalf("n=%d: self-routing mismatch", n)
		}

		omSync := net.OmegaRoute(d)
		e.SetOmega(true)
		omConc, _ := e.RouteOne(d)
		e.SetOmega(false)
		if !omConc.Realized.Equal(omSync.Realized) {
			t.Fatalf("n=%d: omega-forced mismatch", n)
		}

		st := net.Setup(d)
		extSync := net.ExternalRoute(d, st)
		e.SetExternal(st)
		extConc, _ := e.RouteOne(d)
		e.SetExternal(nil)
		if !extConc.Realized.Equal(extSync.Realized) {
			t.Fatalf("n=%d: external mismatch", n)
		}
		if !extConc.OK() {
			t.Fatalf("n=%d: external routing must realize everything", n)
		}
	}
}

// TestTimedOmegaMode: omega permutations route concurrently with the
// omega bit.
func TestTimedOmegaMode(t *testing.T) {
	n := 5
	e := New(core.New(n))
	e.SetOmega(true)
	d := perm.CyclicShift(n, 7)
	if res, _ := e.RouteOne(d); !res.OK() {
		t.Fatal("omega-forced concurrent routing failed")
	}
	// Fig. 5's witness: fails plain, works with the bit — concurrently.
	e2 := New(core.New(2))
	w := perm.Perm{1, 3, 2, 0}
	if res, _ := e2.RouteOne(w); res.OK() {
		t.Fatal("witness should fail plain self-routing")
	}
	e2.SetOmega(true)
	if res, _ := e2.RouteOne(w); !res.OK() {
		t.Fatal("witness should route with the omega bit")
	}
}

func TestTimedMaxArrival(t *testing.T) {
	net := core.New(4)
	e := New(net)
	res, _ := e.RouteOne(perm.BitReversal(4))
	if top := slices.Max(res.ArrivalTime); top != net.GateDelay() {
		t.Fatalf("max arrival %d, want %d", top, net.GateDelay())
	}
}

func TestTimedValidation(t *testing.T) {
	e := New(core.New(3))
	for _, bad := range []func(){
		func() { e.RouteOne(perm.Identity(4)) },
		func() { e.SetExternal(make(core.States, 2)) },
		func() { e.SetExternal(core.States{nil, nil, nil, nil, nil}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}
