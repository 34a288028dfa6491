package core

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestFaultRouterMatchesRouteWithFaults cross-validates the lean
// prediction primitive against the tracing reference implementation:
// over random permutations and random fault sets of size 0..2, both
// must realize the identical permutation, and the tag the trace shows
// on each output must be the destination of the input realized there.
func TestFaultRouterMatchesRouteWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 2; n <= 4; n++ {
		b := New(n)
		fr := b.NewFaultRouter()
		dst := make(perm.Perm, b.N())
		for trial := 0; trial < 200; trial++ {
			d := perm.Random(b.N(), rng)
			faults := make([]Fault, rng.Intn(3))
			for i := range faults {
				faults[i] = Fault{
					Stage:        rng.Intn(b.Stages()),
					Switch:       rng.Intn(b.N() / 2),
					StuckCrossed: rng.Intn(2) == 1,
				}
			}
			ref := b.RouteWithFaults(d, faults, nil)
			want := ref.Realized
			got := fr.Realized(d, faults, nil, dst)
			if !got.Equal(want) {
				t.Fatalf("n=%d faults=%+v d=%v: FaultRouter %v, RouteWithFaults %v",
					n, faults, d, got, want)
			}
			for i, out := range want {
				if tag := ref.TagTrace[b.Stages()][out]; tag != d[i] {
					t.Fatalf("n=%d faults=%+v d=%v: input %d realized at output %d, which shows tag %d",
						n, faults, d, i, out, tag)
				}
			}
		}
	}
}

// TestFaultRouterScratchRestored guards the swap-restore at the end of
// Realized: back-to-back calls on one router must agree with a fresh
// router (an odd number of buffer swaps would corrupt call two).
func TestFaultRouterScratchRestored(t *testing.T) {
	b := New(3)
	shared := b.NewFaultRouter()
	rng := rand.New(rand.NewSource(8))
	fault := []Fault{{Stage: 2, Switch: 1, StuckCrossed: true}}
	for trial := 0; trial < 50; trial++ {
		d := perm.Random(b.N(), rng)
		got := shared.Realized(d, fault, nil, nil)
		want := b.NewFaultRouter().Realized(d, fault, nil, nil)
		if !got.Equal(want) {
			t.Fatalf("trial %d: shared router diverged: %v vs %v", trial, got, want)
		}
	}
}

// TestFaultRouterAllocFree pins the property diagnosis sweeps depend
// on: with a caller-provided dst, repeated predictions do not allocate.
func TestFaultRouterAllocFree(t *testing.T) {
	b := New(4)
	fr := b.NewFaultRouter()
	d := perm.Random(b.N(), rand.New(rand.NewSource(5)))
	dst := make(perm.Perm, b.N())
	faults := []Fault{{Stage: 1, Switch: 3, StuckCrossed: false}}
	if avg := testing.AllocsPerRun(100, func() { fr.Realized(d, faults, nil, dst) }); avg != 0 {
		t.Fatalf("Realized allocates %.1f objects per call, want 0", avg)
	}
}

// TestCheckFault exercises the error-returning validation used by
// runtime fault injection, against the panic-on-bug routing paths.
func TestCheckFault(t *testing.T) {
	b := New(3)
	for _, f := range b.EnumerateFaults() {
		if err := b.CheckFault(f); err != nil {
			t.Fatalf("valid fault %+v rejected: %v", f, err)
		}
	}
	for _, f := range []Fault{
		{Stage: -1, Switch: 0},
		{Stage: b.Stages(), Switch: 0},
		{Stage: 0, Switch: -1},
		{Stage: 0, Switch: b.N() / 2},
	} {
		if err := b.CheckFault(f); err == nil {
			t.Fatalf("invalid fault %+v accepted", f)
		}
	}
}

// TestEnumerateFaults checks the candidate space size and coverage:
// both stuck states of every switch, exactly once.
func TestEnumerateFaults(t *testing.T) {
	b := New(3)
	all := b.EnumerateFaults()
	want := 2 * b.Stages() * b.N() / 2
	if len(all) != want {
		t.Fatalf("enumerated %d faults, want %d", len(all), want)
	}
	seen := make(map[Fault]bool, len(all))
	for _, f := range all {
		if seen[f] {
			t.Fatalf("duplicate fault %+v", f)
		}
		seen[f] = true
	}
}

// BenchmarkFaultRouterRealized times one diagnosis prediction: a
// random permutation at N=256 with one stuck switch, on reused scratch.
func BenchmarkFaultRouterRealized(b *testing.B) {
	net := New(8)
	fr := net.NewFaultRouter()
	d := perm.Random(net.N(), rand.New(rand.NewSource(6)))
	dst := make(perm.Perm, net.N())
	faults := []Fault{{Stage: 7, Switch: 40, StuckCrossed: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr.Realized(d, faults, nil, dst)
	}
}
