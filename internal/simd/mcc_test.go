package simd

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestMCCRealizesExactlyF: the mesh simulation is the CCC loop with a
// different cost model, so it succeeds on exactly F.
func TestMCCRealizesExactlyF(t *testing.T) {
	perm.ForEach(4, func(p perm.Perm) bool {
		mc := NewMCC(p)
		mc.Permute()
		if mc.OK() != perm.InF(p) {
			t.Fatalf("MCC and Theorem 1 disagree on %v", p.Clone())
		}
		return true
	})
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 100; trial++ {
		n := 2 * (1 + rng.Intn(4)) // even n: 2,4,6,8
		p := perm.Random(1<<uint(n), rng)
		mc := NewMCC(p)
		mc.Permute()
		if mc.OK() != perm.InF(p) {
			t.Fatalf("n=%d: MCC and Theorem 1 disagree on %v", n, p)
		}
		if mc.OK() && !mc.Realized().Equal(p) {
			t.Fatalf("n=%d: MCC realized wrong mapping", n)
		}
	}
}

// TestMCCRouteCount is the paper's 7 sqrt(N) - 8 headline.
func TestMCCRouteCount(t *testing.T) {
	for n := 2; n <= 12; n += 2 {
		mc := NewMCC(perm.Identity(1 << uint(n)))
		mc.Permute()
		side := 1 << uint(n/2)
		if mc.Routes() != 7*side-8 {
			t.Errorf("n=%d: routes=%d, want 7*%d-8=%d", n, mc.Routes(), side, 7*side-8)
		}
		if mc.Routes() != FullLoopCost(n) {
			t.Errorf("n=%d: FullLoopCost inconsistent", n)
		}
		if mc.Side() != side {
			t.Errorf("n=%d: side=%d", n, mc.Side())
		}
	}
}

// TestMCCStepCost: horizontal dimensions cost 2*2^b, vertical
// dimensions repeat the pattern.
func TestMCCStepCost(t *testing.T) {
	mc := NewMCC(perm.Identity(1 << 6)) // 8x8 mesh, m=3
	want := map[int]int{0: 2, 1: 4, 2: 8, 3: 2, 4: 4, 5: 8}
	for b, w := range want {
		if got := mc.StepCost(b); got != w {
			t.Errorf("StepCost(%d) = %d, want %d", b, got, w)
		}
	}
}

// TestMCCBPCShortcut: fixed dimensions are skipped with their full mesh
// cost saved.
func TestMCCBPCShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for trial := 0; trial < 100; trial++ {
		n := 2 * (1 + rng.Intn(4))
		spec := perm.RandomBPC(n, rng)
		mc := NewMCC(spec.Perm())
		mc.PermuteBPC(spec)
		if !mc.OK() {
			t.Fatalf("MCC BPC shortcut failed for %v", spec)
		}
		saved := 0
		for j, ax := range spec {
			if ax.Pos == j && !ax.Comp {
				cost := mc.StepCost(j)
				if j == n-1 {
					saved += cost
				} else {
					saved += 2 * cost
				}
			}
		}
		if mc.Routes() != FullLoopCost(n)-saved {
			t.Fatalf("n=%d: routes=%d, want %d (spec %v)", n, mc.Routes(), FullLoopCost(n)-saved, spec)
		}
	}
}

// TestSortRejectsNonPermutations: both bitonic baselines refuse a tag
// vector that repeats a destination instead of sorting it.
func TestSortRejectsNonPermutations(t *testing.T) {
	for name, sort := range map[string]func(perm.Perm){
		"SortCCC": func(d perm.Perm) { SortCCC(d, 1) },
		"SortMCC": func(d perm.Perm) { SortMCC(d) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-permutation", name)
				}
			}()
			sort(perm.Perm{0, 0, 1, 1})
		}()
	}
}

func TestMCCRejectsOddLog(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMCC should reject non-square meshes")
		}
	}()
	NewMCC(perm.Identity(8))
}

// TestSortCCCArbitrary: the bitonic baseline realizes every permutation
// (including non-F ones) at n(n+1)/2 * cost routes.
func TestSortCCCArbitrary(t *testing.T) {
	perm.ForEach(8, func(p perm.Perm) bool {
		realized, routes := SortCCC(p, 2)
		if !realized.Equal(p) {
			t.Fatalf("SortCCC realized %v, want %v", realized, p.Clone())
		}
		if routes != SortRoutesCCC(3, 2) {
			t.Fatalf("SortCCC routes=%d, want %d", routes, SortRoutesCCC(3, 2))
		}
		return true
	})
	rng := rand.New(rand.NewSource(143))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(9)
		p := perm.Random(1<<uint(n), rng)
		realized, routes := SortCCC(p, 2)
		if !realized.Equal(p) {
			t.Fatalf("SortCCC failed at n=%d", n)
		}
		if routes != n*(n+1) {
			t.Fatalf("SortCCC routes=%d, want %d", routes, n*(n+1))
		}
	}
}

// TestSortMCCArbitrary: the mesh bitonic baseline realizes everything.
func TestSortMCCArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	for trial := 0; trial < 30; trial++ {
		n := 2 * (1 + rng.Intn(4))
		p := perm.Random(1<<uint(n), rng)
		realized, routes := SortMCC(p)
		if !realized.Equal(p) {
			t.Fatalf("SortMCC failed at n=%d", n)
		}
		if routes <= 0 {
			t.Fatal("SortMCC counted no routes")
		}
		// The F-routing algorithm must be cheaper (smaller constant)
		// for every mesh larger than 2x2; the trivial 2x2 mesh ties.
		if n == 2 && FullLoopCost(n) != routes {
			t.Fatalf("n=2: expected tie, F=%d bitonic=%d", FullLoopCost(n), routes)
		}
		if n > 2 && FullLoopCost(n) >= routes {
			t.Fatalf("n=%d: F-routing (%d) not cheaper than mesh bitonic (%d)",
				n, FullLoopCost(n), routes)
		}
	}
}

// TestSortBeatenByFactorLogN: on the cube, F-routing uses 2n-1 routes
// vs the sorter's n(n+1)/2 (same one-word cost model): the ratio grows
// as (n+1)/4.
func TestSortBeatenByFactorLogN(t *testing.T) {
	for n := 3; n <= 16; n++ {
		fRoutes := 2*n - 1
		sortRoutes := SortRoutesCCC(n, 1)
		if sortRoutes <= fRoutes {
			t.Errorf("n=%d: sorting (%d) should cost more than F-routing (%d)", n, sortRoutes, fRoutes)
		}
	}
}

// TestTagsFromBPC: every PE's locally computed tag matches the spec
// expansion, with log N local steps and zero routes.
func TestTagsFromBPC(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(9)
		spec := perm.RandomBPC(n, rng)
		res := TagsFromBPC(spec)
		if !res.Tags.Equal(spec.Perm()) {
			t.Fatalf("TagsFromBPC mismatch for %v", spec)
		}
		if res.LocalSteps != n || res.UnitRoutes != 0 {
			t.Fatalf("TagsFromBPC cost: steps=%d routes=%d", res.LocalSteps, res.UnitRoutes)
		}
	}
}

// TestTagsFromAffine: constant local steps, matching POrderingShift.
func TestTagsFromAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		N := 1 << uint(n)
		p := 2*rng.Intn(N/2) + 1
		k := rng.Intn(N)
		res := TagsFromAffine(n, p, k)
		if !res.Tags.Equal(perm.POrderingShift(n, p, k)) {
			t.Fatalf("TagsFromAffine mismatch n=%d p=%d k=%d", n, p, k)
		}
		if res.LocalSteps != 3 || res.UnitRoutes != 0 {
			t.Fatalf("TagsFromAffine cost: steps=%d", res.LocalSteps)
		}
	}
}

// TestTagToRouteEndToEnd: compute tags locally from the compact form,
// then route on the CCC — the complete Section III workflow.
func TestTagToRouteEndToEnd(t *testing.T) {
	n := 8
	spec := perm.BitReversalBPC(n)
	tags := TagsFromBPC(spec).Tags
	c := NewCCC(tags, 1)
	c.PermuteBPC(spec)
	if !c.OK() {
		t.Fatal("end-to-end BPC routing failed")
	}
	aff := TagsFromAffine(n, 5, 3)
	c2 := NewCCC(aff.Tags, 1)
	c2.PermuteInverseOmega()
	if !c2.OK() {
		t.Fatal("end-to-end affine routing failed")
	}
}
