package core

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestWaksmanCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		b := New(n)
		N := 1 << uint(n)
		if got := b.WaksmanFixedCount(); got != N/2-1 {
			t.Errorf("n=%d: fixed count %d, want %d", n, got, N/2-1)
		}
		if got := b.WaksmanProgrammableCount(); got != N*n-N+1 {
			t.Errorf("n=%d: programmable %d, want NlogN-N+1 = %d", n, got, N*n-N+1)
		}
		if len(b.WaksmanFixed()) != b.WaksmanFixedCount() {
			t.Errorf("n=%d: fault list length mismatch", n)
		}
	}
}

func TestWaksmanFixedWellFormed(t *testing.T) {
	b := New(5)
	seen := make(map[faultKey]bool)
	for _, f := range b.WaksmanFixed() {
		if f.StuckCrossed {
			t.Fatal("Waksman switches are fixed straight")
		}
		k := faultKey{f.Stage, f.Switch}
		if seen[k] {
			t.Fatalf("duplicate fixed switch %+v", f)
		}
		seen[k] = true
		if f.Stage < 0 || f.Stage > b.Stages()-2 {
			t.Fatalf("fixed switch in unexpected stage %d", f.Stage)
		}
	}
}

// TestWaksmanTheorem: every permutation is realizable with the fixed
// switches straight — exhaustive at N=4 and N=8 (Waksman's theorem),
// random up to N=2048.
func TestWaksmanTheorem(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		b := New(n)
		fixed := b.WaksmanFixed()
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			st, ok := b.WaksmanSetup(p)
			if !ok {
				t.Fatalf("n=%d: Waksman setup failed on %v", n, p.Clone())
			}
			for _, f := range fixed {
				if st[f.Stage][f.Switch] {
					t.Fatalf("n=%d: fixed switch crossed for %v", n, p.Clone())
				}
			}
			if !b.ExternalRoute(p, st).OK() {
				t.Fatalf("n=%d: Waksman states misroute %v", n, p.Clone())
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(221))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		b := New(n)
		p := perm.Random(1<<uint(n), rng)
		st, ok := b.WaksmanSetup(p)
		if !ok || !b.ExternalRoute(p, st).OK() {
			t.Fatalf("n=%d: Waksman setup failed on random permutation", n)
		}
	}
}

// TestWaksmanBreaksSelfRouting: with the Waksman switches frozen, the
// self-routing class shrinks strictly below F — the reduction is an
// external-setup-only optimization.
func TestWaksmanBreaksSelfRouting(t *testing.T) {
	for _, n := range []int{2, 3} {
		b := New(n)
		fixed := b.WaksmanFixed()
		fCount, fixedCount := 0, 0
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if perm.InF(p) {
				fCount++
				if b.RouteWithFaults(p, fixed, nil).OK() {
					fixedCount++
				}
			}
			return true
		})
		if fixedCount >= fCount {
			t.Errorf("n=%d: freezing Waksman switches did not shrink the self-routing class (%d vs %d)",
				n, fixedCount, fCount)
		}
	}
}
