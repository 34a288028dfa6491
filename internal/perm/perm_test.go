package perm

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestIdentity(t *testing.T) {
	p := Identity(8)
	if !p.Valid() || !p.IsIdentity() {
		t.Fatalf("Identity(8) = %v", p)
	}
	if p.Order() != 1 {
		t.Errorf("identity order = %d", p.Order())
	}
	if p.FixedPoints() != 8 {
		t.Errorf("identity fixed points = %d", p.FixedPoints())
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		p    Perm
		want bool
	}{
		{Perm{0, 1, 2, 3}, true},
		{Perm{3, 2, 1, 0}, true},
		{Perm{0, 0, 2, 3}, false},
		{Perm{0, 1, 2, 4}, false},
		{Perm{-1, 1, 2, 3}, false},
		{Perm{}, true},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
		err := c.p.Validate()
		if (err == nil) != c.want {
			t.Errorf("Validate(%v) error = %v, want error=%v", c.p, err, !c.want)
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		p := Random(16, rng)
		q := p.Inverse()
		if !p.Compose(q).IsIdentity() || !q.Compose(p).IsIdentity() {
			t.Fatalf("inverse failed for %v", p)
		}
	}
}

func TestComposeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a, b, c := Random(12, rng), Random(12, rng), Random(12, rng)
		if !a.Compose(b).Compose(c).Equal(a.Compose(b.Compose(c))) {
			t.Fatal("compose not associative")
		}
	}
}

func TestThenMatchesCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, q := Random(16, rng), Random(16, rng)
	pt := p.Then(q)
	for i := range p {
		if pt[i] != q[p[i]] {
			t.Fatalf("Then[%d] = %d, want %d", i, pt[i], q[p[i]])
		}
	}
}

func TestApply(t *testing.T) {
	p := Perm{2, 0, 3, 1}
	data := []string{"a", "b", "c", "d"}
	out := Apply(p, data)
	// input 0 ("a") goes to output 2, etc.
	want := []string{"b", "d", "a", "c"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Apply = %v, want %v", out, want)
		}
	}
}

func TestApplyInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := Random(32, rng)
	data := make([]int, 32)
	for i := range data {
		data[i] = i * i
	}
	back := Apply(p.Inverse(), Apply(p, data))
	for i := range data {
		if back[i] != data[i] {
			t.Fatal("Apply inverse round trip failed")
		}
	}
}

func TestStringParse(t *testing.T) {
	p := Perm{1, 3, 2, 0}
	if p.String() != "(1,3,2,0)" {
		t.Errorf("String = %q", p.String())
	}
	for _, s := range []string{"(1,3,2,0)", "1,3,2,0", " 1, 3, 2, 0 "} {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !q.Equal(p) {
			t.Errorf("Parse(%q) = %v", s, q)
		}
	}
	if _, err := Parse("(1,1,2,0)"); err == nil {
		t.Error("Parse accepted a non-permutation")
	}
	if _, err := Parse("(1,x)"); err == nil {
		t.Error("Parse accepted a non-integer")
	}
}

func TestCycles(t *testing.T) {
	p := Perm{1, 0, 2, 4, 3}
	cycles := p.Cycles()
	want := [][]int{{0, 1}, {2}, {3, 4}}
	if len(cycles) != len(want) {
		t.Fatalf("cycles = %v", cycles)
	}
	for i := range want {
		if len(cycles[i]) != len(want[i]) {
			t.Fatalf("cycles = %v", cycles)
		}
		for j := range want[i] {
			if cycles[i][j] != want[i][j] {
				t.Fatalf("cycles = %v", cycles)
			}
		}
	}
	if p.Order() != 2 {
		t.Errorf("order = %d, want 2", p.Order())
	}
}

func TestOrderMatchesIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		p := Random(10, rng)
		k := p.Order()
		q := Identity(10)
		for i := 0; i < k; i++ {
			q = p.Compose(q)
		}
		if !q.IsIdentity() {
			t.Fatalf("p^order != identity for %v", p)
		}
		// And no smaller positive power is the identity.
		q = Identity(10)
		for i := 1; i < k; i++ {
			q = p.Compose(q)
			if q.IsIdentity() {
				t.Fatalf("order %d not minimal for %v", k, p)
			}
		}
	}
}

func TestRandomIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		if !Random(64, rng).Valid() {
			t.Fatal("Random produced invalid permutation")
		}
	}
}

// refValidate is Validate as it was with an N-int scratch slice: the
// messages the bitset version must reproduce.
func refValidate(p Perm) error {
	seen := make([]int, len(p))
	for i := range seen {
		seen[i] = -1
	}
	for i, d := range p {
		if d < 0 || d >= len(p) {
			return fmt.Errorf("perm: D[%d] = %d out of range [0,%d)", i, d, len(p))
		}
		if j := seen[d]; j >= 0 {
			return fmt.Errorf("perm: destination %d assigned to both inputs %d and %d", d, j, i)
		}
		seen[d] = i
	}
	return nil
}

// TestValidateMatchesReference runs Validate and Valid against the
// reference on random permutations and on vectors broken by repeats
// and out-of-range entries, on both sides of the stack bitset's 1024.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 1000 + rng.Intn(60)
		}
		p := Random(n, rng)
		for k := rng.Intn(4); k > 0 && n > 0; k-- {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				p[i] = p[rng.Intn(n)]
			case 1:
				p[i] = n + rng.Intn(3)
			case 2:
				p[i] = -1 - rng.Intn(3)
			}
		}
		got, want := p.Validate(), refValidate(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate(%v) = %v, want %v", p, got, want)
		}
		if p.Valid() != (want == nil) {
			t.Fatalf("Valid(%v) = %v, reference error %v", p, p.Valid(), want)
		}
	}
}

func TestValidateAllocFree(t *testing.T) {
	p := Random(1024, rand.New(rand.NewSource(1)))
	if allocs := testing.AllocsPerRun(100, func() {
		if p.Validate() != nil || !p.Valid() {
			t.Fatal("valid permutation rejected")
		}
	}); allocs != 0 {
		t.Fatalf("Validate and Valid at N=1024 allocate %v times, want 0", allocs)
	}
}
