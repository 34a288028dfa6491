package recirc

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestCounts(t *testing.T) {
	r := New(6)
	if r.N() != 64 || r.SwitchCount() != 32 {
		t.Fatalf("structure: N=%d switches=%d", r.N(), r.SwitchCount())
	}
	if r.PassesF() != 21 || r.PassesOmega() != 12 {
		t.Fatalf("passes: F=%d omega=%d", r.PassesF(), r.PassesOmega())
	}
}

// TestRouteFRealizesExactlyF: the recirculating schedule must equal F —
// exhaustive at N=4, N=8.
func TestRouteFRealizesExactlyF(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		r := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			res := r.RouteF(p)
			if res.OK() != perm.InF(p) {
				t.Fatalf("n=%d: recirc and Theorem 1 disagree on %v", n, p.Clone())
			}
			if res.OK() && !res.Realized.Equal(p) {
				t.Fatalf("n=%d: realized %v, want %v", n, res.Realized, p.Clone())
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		r := New(n)
		p := perm.Random(1<<uint(n), rng)
		if r.RouteF(p).OK() != perm.InF(p) {
			t.Fatalf("n=%d: recirc disagrees with F on %v", n, p)
		}
	}
}

// TestRouteFPassCounts: 2logN-1 exchanges, 2logN-2 wire trips.
func TestRouteFPassCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		r := New(n)
		res := r.RouteF(perm.Identity(1 << uint(n)))
		if res.Exchanges != 2*n-1 {
			t.Errorf("n=%d: exchanges=%d, want %d", n, res.Exchanges, 2*n-1)
		}
		if res.WireTrips != 2*n-2 {
			t.Errorf("n=%d: wire trips=%d, want %d", n, res.WireTrips, 2*n-2)
		}
		if res.Passes() != r.PassesF() {
			t.Errorf("n=%d: passes=%d, want %d", n, res.Passes(), r.PassesF())
		}
	}
}

// TestRouteOmegaRealizesExactlyOmega.
func TestRouteOmegaRealizesExactlyOmega(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		r := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if r.RouteOmega(p).OK() != perm.IsOmega(p) {
				t.Fatalf("n=%d: recirc omega disagrees with IsOmega on %v", n, p.Clone())
			}
			return true
		})
	}
}

// TestRouteInverseOmegaRealizesExactlyInverseOmega.
func TestRouteInverseOmegaRealizesExactlyInverseOmega(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		r := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if r.RouteInverseOmega(p).OK() != perm.IsInverseOmega(p) {
				t.Fatalf("n=%d: recirc inverse-omega disagrees on %v", n, p.Clone())
			}
			return true
		})
	}
	// Larger spot checks with known members.
	for n := 4; n <= 9; n++ {
		r := New(n)
		if !r.RouteInverseOmega(perm.POrderingShift(n, 5, 3)).OK() {
			t.Errorf("n=%d: p-ordering+shift failed", n)
		}
		if !r.RouteOmega(perm.CyclicShift(n, 3)).OK() {
			t.Errorf("n=%d: cyclic shift failed on omega mode", n)
		}
	}
}

// TestRealizedAlwaysBijection: misroutes still land somewhere distinct.
func TestRealizedAlwaysBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	r := New(5)
	for trial := 0; trial < 50; trial++ {
		res := r.RouteF(perm.Random(32, rng))
		if !res.Realized.Valid() {
			t.Fatal("realized mapping not a bijection")
		}
	}
}

// TestCheckPanics: a vector of the wrong length, or one that is not a
// permutation, is rejected by every mode.
func TestCheckPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		d perm.Perm
	}{
		{3, perm.Identity(4)},
		{2, perm.Perm{0, 0, 1, 1}},
	} {
		r := New(c.n)
		for name, route := range map[string]func(perm.Perm) *Result{
			"F":             r.RouteF,
			"omega":         r.RouteOmega,
			"inverse-omega": r.RouteInverseOmega,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s mode accepted %v at n=%d", name, c.d, c.n)
					}
				}()
				route(c.d)
			}()
		}
	}
}
