package simd

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestPSCMatchesCCC: the PSC algorithm simulates the same network with
// shuffles standing in for the missing cube dimensions, so it must
// succeed on exactly the same permutations and deliver identical
// results.
func TestPSCMatchesCCC(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			psc := NewPSC(p)
			psc.Permute()
			if psc.OK() != perm.InF(p) {
				t.Fatalf("n=%d: PSC and Theorem 1 disagree on %v", n, p.Clone())
			}
			if psc.OK() && !psc.Realized().Equal(p) {
				t.Fatalf("n=%d: PSC realized %v, want %v", n, psc.Realized(), p.Clone())
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(8)
		p := perm.Random(1<<uint(n), rng)
		ccc := NewCCC(p, 1)
		ccc.Permute()
		psc := NewPSC(p)
		psc.Permute()
		if ccc.OK() != psc.OK() {
			t.Fatalf("n=%d: CCC and PSC disagree on %v", n, p)
		}
	}
}

// TestPSCRouteCount: 4 log N - 3 unit routes for the full algorithm.
func TestPSCRouteCount(t *testing.T) {
	for n := 1; n <= 10; n++ {
		p := NewPSC(perm.Identity(1 << uint(n)))
		p.Permute()
		if p.Routes() != 4*n-3 {
			t.Errorf("n=%d: routes=%d, want %d", n, p.Routes(), 4*n-3)
		}
	}
}

// TestPSCOmegaShortcut: the first loop collapses to one shuffle,
// 2 log N unit routes, still correct for every Omega permutation.
func TestPSCOmegaShortcut(t *testing.T) {
	for _, n := range []int{2, 3} {
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if !perm.IsOmega(p) {
				return true
			}
			psc := NewPSC(p)
			psc.PermuteOmega()
			if !psc.OK() {
				t.Fatalf("n=%d: PSC omega shortcut failed on %v", n, p.Clone())
			}
			if psc.Routes() != 2*n {
				t.Fatalf("n=%d: omega shortcut routes=%d, want %d", n, psc.Routes(), 2*n)
			}
			return true
		})
	}
	for n := 4; n <= 9; n++ {
		d := perm.CyclicShift(n, 7)
		psc := NewPSC(d)
		psc.PermuteOmega()
		if !psc.OK() {
			t.Fatalf("n=%d: omega shortcut failed on cyclic shift", n)
		}
	}
}

// TestPSCInverseOmegaShortcut: the trailing loop collapses to one
// unshuffle.
func TestPSCInverseOmegaShortcut(t *testing.T) {
	for _, n := range []int{2, 3} {
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if !perm.IsInverseOmega(p) {
				return true
			}
			psc := NewPSC(p)
			psc.PermuteInverseOmega()
			if !psc.OK() {
				t.Fatalf("n=%d: PSC inverse-omega shortcut failed on %v", n, p.Clone())
			}
			if psc.Routes() != 2*n {
				t.Fatalf("n=%d: shortcut routes=%d, want %d", n, psc.Routes(), 2*n)
			}
			return true
		})
	}
}

// TestPSCLargeF: big F permutations through the PSC.
func TestPSCLargeF(t *testing.T) {
	n := 10
	for _, d := range []perm.Perm{
		perm.BitReversal(n),
		perm.MatrixTranspose(n),
		perm.POrderingShift(n, 77, 13),
		perm.ShuffledRowMajor(n),
	} {
		psc := NewPSC(d)
		psc.Permute()
		if !psc.OK() {
			t.Errorf("PSC failed on an F permutation at n=%d", n)
		}
	}
}

func TestPSCRotationsReturnHome(t *testing.T) {
	// Shuffles and unshuffles must net to zero rotation (mod log N) over
	// a full run so PE indices mean what they meant at the start.
	for n := 1; n <= 10; n++ {
		for name, prog := range map[string]Program{
			"full":          PSCProgram(n),
			"omega":         PSCOmegaProgram(n),
			"inverse-omega": PSCInverseOmegaProgram(n),
		} {
			rot := 0
			for _, in := range prog {
				switch in.Op {
				case OpShuffle:
					rot++
				case OpUnshuffle:
					rot--
				}
			}
			if rot%n != 0 {
				t.Fatalf("n=%d: net rotation %d after %s run", n, rot, name)
			}
		}
	}
}
