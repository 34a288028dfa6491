package simd

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/perm"
)

func TestProgramLengths(t *testing.T) {
	for n := 1; n <= 10; n++ {
		if got := CCCProgram(n).UnitRoutes(); got != 2*n-1 {
			t.Errorf("n=%d: CCC program %d instrs, want %d", n, got, 2*n-1)
		}
		if got := PSCProgram(n).UnitRoutes(); got != 4*n-3 {
			t.Errorf("n=%d: PSC program %d instrs, want %d", n, got, 4*n-3)
		}
		if got := PSCOmegaProgram(n).UnitRoutes(); got != 2*n {
			t.Errorf("n=%d: PSC omega program %d instrs, want %d", n, got, 2*n)
		}
		if got := PSCInverseOmegaProgram(n).UnitRoutes(); got != 2*n {
			t.Errorf("n=%d: PSC inverse-omega program %d instrs, want %d", n, got, 2*n)
		}
		if got := BitonicProgram(n).UnitRoutes(); got != n*(n+1)/2 {
			t.Errorf("n=%d: bitonic program %d instrs, want %d", n, got, n*(n+1)/2)
		}
	}
}

// TestProgramsMatchDirectImplementations: interpreting the programs
// must reproduce the direct CCC/PSC code exactly — same success flag,
// same realized mapping, same route count.
func TestProgramsMatchDirectImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(291))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(8)
		d := perm.Random(1<<uint(n), rng)

		m := NewMachine(d)
		m.Run(CCCProgram(n))
		c := NewCCC(d, 1)
		c.Permute()
		if m.OK() != c.OK() || !m.Realized().Equal(c.Realized()) || m.Routes() != c.Routes() {
			t.Fatalf("n=%d: CCC program diverges from direct implementation", n)
		}

		m2 := NewMachine(d)
		m2.Run(PSCProgram(n))
		p := NewPSC(d)
		p.Permute()
		if m2.OK() != p.OK() || !m2.Realized().Equal(p.Realized()) || m2.Routes() != p.Routes() {
			t.Fatalf("n=%d: PSC program diverges from direct implementation", n)
		}
	}
}

// TestOmegaProgramMatches: the shortcut program equals PermuteOmega.
func TestOmegaProgramMatches(t *testing.T) {
	for n := 2; n <= 8; n++ {
		d := perm.CyclicShift(n, 3)
		m := NewMachine(d)
		m.Run(PSCOmegaProgram(n))
		p := NewPSC(d)
		p.PermuteOmega()
		if m.OK() != p.OK() || m.Routes() != p.Routes() {
			t.Fatalf("n=%d: omega program diverges", n)
		}
		if !m.OK() {
			t.Fatalf("n=%d: omega program failed on cyclic shift", n)
		}
	}
}

func TestProgramListing(t *testing.T) {
	prog := PSCProgram(2)
	listing := prog.String()
	want := "XCHG.tag 0\nUNSHUF\nXCHG.tag 1\nSHUF\nXCHG.tag 0"
	if listing != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", listing, want)
	}
	if !strings.Contains(CCCProgram(3).String(), "XCHG.dim 2") {
		t.Error("CCC listing missing middle dimension")
	}
}

func TestMachineValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewMachine(perm.Perm{0, 0, 1, 1}) },
		func() {
			m := NewMachine(perm.Identity(4))
			m.Exec(Instr{Op: Op(99)})
		},
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

// TestBitonicProgram: the compare-exchanges sort every tag vector on
// the one-route machine, realizing it whether or not it is in F.
func TestBitonicProgram(t *testing.T) {
	if got, want := BitonicProgram(2).String(), "CMPX.dim 0 dir 1\nCMPX.dim 1 dir 2\nCMPX.dim 0 dir 2"; got != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", got, want)
	}
	rng := rand.New(rand.NewSource(292))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		d := perm.Random(1<<uint(n), rng)
		m := NewMachine(d)
		m.Run(BitonicProgram(n))
		if !m.OK() || !m.Realized().Equal(d) || m.Routes() != n*(n+1)/2 {
			t.Fatalf("n=%d: bitonic program on %v: ok=%v realized %v routes %d", n, d, m.OK(), m.Realized(), m.Routes())
		}
	}
}

// TestWireTripAllocs: a shuffle or unshuffle moves the records into the
// register file's spare pair, so a wire trip allocates nothing, and a
// shuffle then an unshuffle restores every PE's record and tag.
func TestWireTripAllocs(t *testing.T) {
	d := perm.Random(1024, rand.New(rand.NewSource(5)))
	m := NewMachine(d)
	for _, op := range []Op{OpShuffle, OpUnshuffle} {
		if allocs := testing.AllocsPerRun(100, func() { m.Exec(Instr{Op: op}) }); allocs != 0 {
			t.Errorf("%v allocates %.1f objects per Exec, want 0", Instr{Op: op}, allocs)
		}
	}
	m.Exec(Instr{Op: OpShuffle})
	m.Exec(Instr{Op: OpUnshuffle})
	if !m.Realized().Equal(perm.Identity(1024)) || !perm.Perm(m.Dest()).Equal(d) {
		t.Fatal("a shuffle then an unshuffle did not restore the register file")
	}
}
