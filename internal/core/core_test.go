package core

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestNetworkCounts checks the Section I structural counts: 2 log N - 1
// stages and N log N - N/2 switches.
func TestNetworkCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		b := New(n)
		N := 1 << uint(n)
		if b.N() != N {
			t.Fatalf("n=%d: N=%d", n, b.N())
		}
		if b.Stages() != 2*n-1 {
			t.Errorf("n=%d: stages=%d, want %d", n, b.Stages(), 2*n-1)
		}
		if b.SwitchCount() != N*n-N/2 {
			t.Errorf("n=%d: switches=%d, want %d", n, b.SwitchCount(), N*n-N/2)
		}
		if b.SwitchCount() != b.Stages()*b.SwitchesPerStage() {
			t.Errorf("n=%d: switch count inconsistent with stages", n)
		}
		if b.GateDelay() != 2*n-1 {
			t.Errorf("n=%d: gate delay=%d", n, b.GateDelay())
		}
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	New(0)
}

// TestNewSharesOneNetwork checks New hands every caller asking for the
// size it built last the same immutable network, and keeps no other:
// asking for another size releases the first.
func TestNewSharesOneNetwork(t *testing.T) {
	a := New(5)
	if b := New(5); b != a {
		t.Fatal("New(5) built a second copy of B(5)")
	}
	if c := New(4); c == a || c.LogN() != 4 || New(4) != c {
		t.Fatalf("New(4) after New(5): LogN %d, shared %v", c.LogN(), New(4) == c)
	}
	if New(5) == a {
		t.Fatal("New kept B(5) after building B(4)")
	}
}

// TestControlBits checks Fig. 3's rule: stage b and stage 2n-2-b use bit
// b; e.g. for n=3 the stage sequence is 0,1,2,1,0.
func TestControlBits(t *testing.T) {
	b := New(3)
	want := []int{0, 1, 2, 1, 0}
	for s, w := range want {
		if got := b.ControlBit(s); got != w {
			t.Errorf("ControlBit(%d) = %d, want %d", s, got, w)
		}
	}
	b5 := New(5)
	for s := 0; s < b5.Stages(); s++ {
		mirror := b5.Stages() - 1 - s
		if b5.ControlBit(s) != b5.ControlBit(mirror) {
			t.Errorf("control bits not mirror-symmetric at stage %d", s)
		}
	}
}

// TestWiringIsPermutationPerBoundary: every inter-stage link map must be
// a permutation of the lines.
func TestWiringIsPermutationPerBoundary(t *testing.T) {
	for n := 1; n <= 8; n++ {
		b := New(n)
		for s, links := range b.Wiring() {
			if !perm.Perm(links).Valid() {
				t.Fatalf("n=%d: boundary %d is not a permutation", n, s)
			}
		}
	}
}

// TestFig4BitReversal reproduces Fig. 4: bit reversal routes on B(3)
// under self-routing, every input reaching the reversed output.
func TestFig4BitReversal(t *testing.T) {
	b := New(3)
	d := perm.BitReversal(3)
	res := b.SelfRoute(d)
	if !res.OK() {
		t.Fatalf("bit reversal misrouted: %v", res.Misrouted)
	}
	if !res.Realized.Equal(d) {
		t.Fatalf("realized %v, want %v", res.Realized, d)
	}
	// The tag trace must deliver tag y at output y.
	for y, tag := range res.TagTrace[b.Stages()] {
		if tag != y {
			t.Errorf("output %d holds tag %d", y, tag)
		}
	}
}

// TestFig5Reject reproduces Fig. 5: D = (1,3,2,0) is not realized on
// B(2) by self-routing.
func TestFig5Reject(t *testing.T) {
	b := New(2)
	res := b.SelfRoute(perm.Perm{1, 3, 2, 0})
	if res.OK() {
		t.Fatal("(1,3,2,0) should misroute under self-routing")
	}
	if len(res.Misrouted) == 0 {
		t.Fatal("expected misrouted inputs")
	}
}

// TestSelfRoutingMatchesTheorem1 is the central cross-validation: the
// gate-level simulation must realize d exactly when the recursive
// characterization says d is in F(n). Exhaustive for N=4 and N=8,
// randomized up to N=1024.
func TestSelfRoutingMatchesTheorem1(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		b := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if b.Realizes(p) != perm.InF(p) {
				t.Fatalf("n=%d: simulation and Theorem 1 disagree on %v", n, p.Clone())
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		b := New(n)
		var p perm.Perm
		switch trial % 3 {
		case 0:
			p = perm.Random(1<<uint(n), rng)
		case 1:
			p = perm.RandomBPC(n, rng).Perm()
		case 2:
			N := 1 << uint(n)
			p = perm.POrderingShift(n, 2*rng.Intn(N/2)+1, rng.Intn(N))
		}
		if b.Realizes(p) != perm.InF(p) {
			t.Fatalf("n=%d: simulation and Theorem 1 disagree on %v", n, p)
		}
	}
}

// TestBPCAllRoute: Theorem 2 end to end — every BPC permutation routes
// on the real network (exhaustive for n <= 4).
func TestBPCAllRoute(t *testing.T) {
	for n := 1; n <= 4; n++ {
		b := New(n)
		perm.ForEachBPC(n, func(a perm.BPC) bool {
			if !b.Realizes(a.Perm()) {
				t.Fatalf("n=%d: BPC %v misroutes", n, a)
			}
			return true
		})
	}
}

// TestTableIRouteLarge routes every Table I permutation on B(10)
// (N=1024).
func TestTableIRouteLarge(t *testing.T) {
	n := 10
	b := New(n)
	for _, c := range []struct {
		name string
		p    perm.Perm
	}{
		{"matrix transpose", perm.MatrixTranspose(n)},
		{"bit reversal", perm.BitReversal(n)},
		{"vector reversal", perm.VectorReversal(n)},
		{"perfect shuffle", perm.PerfectShuffle(n)},
		{"unshuffle", perm.Unshuffle(n)},
		{"shuffled row major", perm.ShuffledRowMajor(n)},
		{"bit shuffle", perm.BitShuffle(n)},
	} {
		if !b.Realizes(c.p) {
			t.Errorf("%s does not route on B(%d)", c.name, n)
		}
	}
}

// TestIdentityAllStraight: the identity permutation must set every
// switch straight.
func TestIdentityAllStraight(t *testing.T) {
	for n := 1; n <= 6; n++ {
		b := New(n)
		res := b.SelfRoute(perm.Identity(1 << uint(n)))
		if !res.OK() {
			t.Fatalf("identity misroutes at n=%d", n)
		}
		if res.States.CountCrossed() != 0 {
			t.Errorf("n=%d: identity crossed %d switches", n, res.States.CountCrossed())
		}
	}
}

// TestVectorReversalCrossedCount: under self-routing, vector reversal
// crosses every switch in the first n stages (the sub-permutation
// entering each subnetwork is again a vector reversal with upper tags
// even) and leaves the last n-1 stages straight, giving exactly
// n*N/2 crossed switches: C(n) = N/2 + 2*C(n-1), C(1) = 1.
func TestVectorReversalCrossedCount(t *testing.T) {
	for n := 1; n <= 6; n++ {
		b := New(n)
		res := b.SelfRoute(perm.VectorReversal(n))
		if !res.OK() {
			t.Fatalf("vector reversal misroutes at n=%d", n)
		}
		N := 1 << uint(n)
		if got, want := res.States.CountCrossed(), n*N/2; got != want {
			t.Errorf("n=%d: vector reversal crossed %d switches, want %d", n, got, want)
		}
	}
}

// TestOmegaForcedRealizesOmega: with the omega bit set, every Omega
// permutation is realized (Section II). Exhaustive at N=4 and N=8.
func TestOmegaForcedRealizesOmega(t *testing.T) {
	for _, n := range []int{2, 3} {
		b := New(n)
		checked, realized := 0, 0
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if !perm.IsOmega(p) {
				return true
			}
			checked++
			if b.RealizesOmega(p) {
				realized++
			} else {
				t.Errorf("n=%d: omega perm %v not realized with omega bit", n, p.Clone())
			}
			return true
		})
		if checked == 0 {
			t.Fatal("no omega permutations found")
		}
	}
}

// TestOmegaForcedOnlyOmega: conversely, the omega-forced network
// realizes *only* omega permutations (the last n stages are exactly an
// omega network).
func TestOmegaForcedOnlyOmega(t *testing.T) {
	for _, n := range []int{2, 3} {
		b := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			if b.RealizesOmega(p) != perm.IsOmega(p) {
				t.Fatalf("n=%d: omega-forced realization disagrees with IsOmega on %v", n, p.Clone())
			}
			return true
		})
	}
}

// TestOmegaBitNeeded exhibits an Omega permutation that self-routing
// alone misroutes but the omega bit rescues.
func TestOmegaBitNeeded(t *testing.T) {
	d := perm.Perm{1, 3, 2, 0} // Fig. 5's witness, which is in Omega(2)
	if !perm.IsOmega(d) {
		t.Fatal("witness must be in Omega(2)")
	}
	b := New(2)
	if b.Realizes(d) {
		t.Fatal("witness should fail plain self-routing")
	}
	if !b.RealizesOmega(d) {
		t.Fatal("witness should route with the omega bit")
	}
}

// TestSetupRealizesEverything: external setup must realize all N!
// permutations — exhaustive at N=4 and N=8, random up to N=2048.
func TestSetupRealizesEverything(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		b := New(n)
		perm.ForEach(1<<uint(n), func(p perm.Perm) bool {
			st := b.Setup(p)
			res := b.ExternalRoute(p, st)
			if !res.OK() {
				t.Fatalf("n=%d: setup failed to realize %v (misrouted %v)", n, p.Clone(), res.Misrouted)
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		b := New(n)
		p := perm.Random(1<<uint(n), rng)
		if !b.ExternalRoute(p, b.Setup(p)).OK() {
			t.Fatalf("n=%d: setup failed on random permutation", n)
		}
	}
}

// TestSetupRealizesFig5Witness: the permutation that self-routing cannot
// do is fine with external setup.
func TestSetupRealizesFig5Witness(t *testing.T) {
	b := New(2)
	d := perm.Perm{1, 3, 2, 0}
	if !b.ExternalRoute(d, b.Setup(d)).OK() {
		t.Fatal("external setup must realize (1,3,2,0)")
	}
}

// TestPermute moves data end to end.
func TestPermute(t *testing.T) {
	b := New(3)
	data := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	out := Permute(b, perm.BitReversal(3), data)
	// Input 1 (="b") goes to output 4, etc.
	want := []string{"a", "e", "c", "g", "b", "f", "d", "h"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Permute = %v, want %v", out, want)
		}
	}
}

func TestPermutePanicsOnNonF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Permute should panic on non-F permutation")
		}
	}()
	b := New(2)
	Permute(b, perm.Perm{1, 3, 2, 0}, []int{0, 1, 2, 3})
}

// TestRealizedIsAlwaysPermutation: whatever the tags, the physical
// routing is a bijection from inputs to outputs (switches never
// duplicate or drop signals).
func TestRealizedIsAlwaysPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	b := New(5)
	for trial := 0; trial < 100; trial++ {
		p := perm.Random(32, rng)
		res := b.SelfRoute(p)
		if !res.Realized.Valid() {
			t.Fatalf("realized mapping not a permutation for %v", p)
		}
	}
}

// TestMisroutedConsistent: Misrouted is exactly the set of inputs where
// Realized differs from the request.
func TestMisroutedConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	b := New(4)
	for trial := 0; trial < 100; trial++ {
		p := perm.Random(16, rng)
		res := b.SelfRoute(p)
		want := 0
		for i := range p {
			if res.Realized[i] != p[i] {
				want++
			}
		}
		if len(res.Misrouted) != want {
			t.Fatalf("misrouted count %d, want %d", len(res.Misrouted), want)
		}
	}
}

// TestDiagram sanity-checks the ASCII rendering.
func TestDiagram(t *testing.T) {
	b := New(2)
	good := b.Diagram(b.SelfRoute(perm.Identity(4)))
	if len(good) == 0 || containsStr(good, "misrouted") {
		t.Errorf("identity diagram should have no misroutes:\n%s", good)
	}
	bad := b.Diagram(b.SelfRoute(perm.Perm{1, 3, 2, 0}))
	if !containsStr(bad, "misrouted") {
		t.Errorf("Fig. 5 diagram should flag misroutes:\n%s", bad)
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

// TestExternalStatesValidation: malformed state slices must be rejected
// loudly.
func TestExternalStatesValidation(t *testing.T) {
	b := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("ExternalRoute should panic on wrong stage count")
		}
	}()
	b.ExternalRoute(perm.Identity(8), make(States, 3))
}

// TestStatesClone ensures Clone is deep.
func TestStatesClone(t *testing.T) {
	b := New(2)
	st := b.NewStates()
	cl := st.Clone()
	cl[0][0] = true
	if st[0][0] {
		t.Fatal("Clone is shallow")
	}
	if st.CountCrossed() != 0 || cl.CountCrossed() != 1 {
		t.Fatal("CountCrossed wrong")
	}
}
