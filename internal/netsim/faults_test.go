package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// TestFaultyAgreesWithCore cross-validates the concurrent stuck-switch
// simulation against the synchronous core.RouteWithFaults: same faults,
// same vectors, so the realized permutation and the misrouted set must
// match exactly.
func TestFaultyAgreesWithCore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 4} {
		net := core.New(n)
		for trial := 0; trial < 20; trial++ {
			nf := 1 + rng.Intn(2)
			faults := make([]core.Fault, nf)
			for i := range faults {
				faults[i] = core.Fault{
					Stage:        rng.Intn(net.Stages()),
					Switch:       rng.Intn(net.N() / 2),
					StuckCrossed: rng.Intn(2) == 1,
				}
			}
			d := perm.Random(net.N(), rng)
			want := net.RouteWithFaults(d, faults, nil)
			got, _ := NewWithFaults(net, faults).RouteOne(d)
			if !got.Realized.Equal(want.Realized) {
				t.Fatalf("n=%d faults=%v d=%v: concurrent realized %v, core %v",
					n, faults, d, got.Realized, want.Realized)
			}
			if got.OK() != want.OK() {
				t.Fatalf("n=%d: misroute detection disagrees: %v vs %v",
					n, got.Misrouted, want.Misrouted)
			}
		}
	}
}

// TestFaultyHealthyFaultSetIsTransparent checks an empty fault set
// behaves exactly like the undamaged engine.
func TestFaultyHealthyFaultSetIsTransparent(t *testing.T) {
	net := core.New(3)
	d := perm.BitReversal(3)
	res, _ := NewWithFaults(net, nil).RouteOne(d)
	if !res.OK() {
		t.Fatal("no faults: the self-routable vector must route cleanly")
	}
	if !res.Realized.Equal(d) {
		t.Fatalf("realized %v, want %v", res.Realized, d)
	}
}

// TestFaultyRejectsBadCoordinates pins the validation panic.
func TestFaultyRejectsBadCoordinates(t *testing.T) {
	net := core.New(2)
	for _, f := range []core.Fault{{Stage: 99, Switch: 0}, {Stage: 0, Switch: net.N() / 2}} {
		func() {
			defer func() {
				if got, want := recover(), net.CheckFault(f); fmt.Sprint(got) != want.Error() {
					t.Fatalf("out-of-range fault %+v panicked with %v, want %v", f, got, want)
				}
			}()
			NewWithFaults(net, []core.Fault{f})
		}()
	}
}
