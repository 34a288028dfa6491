package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parsetup"
	"repro/internal/perm"
)

// The looping kernel's oracle is internal/parsetup, the PRAM-rounds
// model of the same 2-coloring (cycle leaders by pointer jumping, one
// level of every block at a time), written independently of SetupInto
// and emitting States. These tests hold SetupInto bit-identical to it,
// and SettingInto to whichever of parsetup and SelfRoute the serving
// policy picks.

// oracleWords returns parsetup's setting for d, packed.
func oracleWords(t *testing.T, b *core.Network, d perm.Perm) []uint64 {
	t.Helper()
	st, _, err := parsetup.Setup(b, d)
	if err != nil {
		t.Fatalf("parsetup.Setup(%v): %v", d, err)
	}
	return st.Pack(make([]uint64, st.PackedLen()))
}

// dirty sets every bit of words, so a kernel that leaves a bit
// unwritten shows, and returns words.
func dirty(words []uint64) []uint64 {
	for i := range words {
		words[i] = ^uint64(0)
	}
	return words
}

func sameWords(t *testing.T, what string, d perm.Perm, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N=%d d=%v: %s word %d = %#x, want %#x", len(d), d, what, i, got[i], want[i])
		}
	}
}

// checkSetupInto runs SetupInto on d into a dirty buffer and compares
// its words with parsetup's.
func checkSetupInto(t *testing.T, b *core.Network, d perm.Perm, words []uint64, sc *core.SetupScratch) {
	t.Helper()
	b.SetupInto(d, dirty(words), sc)
	sameWords(t, "SetupInto", d, words, oracleWords(t, b, d))
}

// checkSettingInto runs SettingInto on d into a dirty buffer: its
// verdict must be SelfRoute's, and its words SelfRoute's states packed
// when d self-routes, parsetup's otherwise.
func checkSettingInto(t *testing.T, b *core.Network, d perm.Perm, words []uint64, sc *core.SetupScratch) {
	t.Helper()
	ref := b.SelfRoute(d)
	if got := b.SettingInto(d, dirty(words), sc); got != ref.OK() {
		t.Fatalf("N=%d d=%v: SettingInto self-routed = %v, SelfRoute OK = %v", b.N(), d, got, ref.OK())
	}
	want := ref.States.Pack(make([]uint64, ref.States.PackedLen()))
	if !ref.OK() {
		want = oracleWords(t, b, d)
	}
	sameWords(t, "SettingInto", d, words, want)
}

func newWords(b *core.Network) []uint64 { return make([]uint64, b.Stages()*b.StageWords()) }

// TestSetupIntoExhaustive checks the kernels on every permutation of
// N = 2, 4 and 8.
func TestSetupIntoExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		b := core.New(n)
		words, sc := newWords(b), core.NewSetupScratch(b)
		perm.ForEach(b.N(), func(d perm.Perm) bool {
			checkSetupInto(t, b, d, words, sc)
			checkSettingInto(t, b, d, words, sc)
			return true
		})
	}
}

// TestSetupIntoRandom checks SetupInto on 300 uniform permutations at
// every N from 2 to 4096, and SettingInto on 30 of them and on 30 F(n)
// members. From N=256 on, the outer blocks own whole words of each
// stage; below, every block shares its words with siblings.
func TestSetupIntoRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 12; n++ {
		b := core.New(n)
		words, sc := newWords(b), core.NewSetupScratch(b)
		for k := 0; k < 300; k++ {
			d := perm.Random(b.N(), rng)
			checkSetupInto(t, b, d, words, sc)
			if k < 30 {
				checkSettingInto(t, b, d, words, sc)
			}
		}
		for k := 0; k < 30; k++ {
			checkSettingInto(t, b, perm.RandomF(n, rng), words, sc)
		}
	}
}

// TestSetupMatchesSetupInto: the reference Setup is the kernel's words
// unpacked.
func TestSetupMatchesSetupInto(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := core.New(7)
	words, sc := newWords(b), core.NewSetupScratch(b)
	for k := 0; k < 20; k++ {
		d := perm.Random(b.N(), rng)
		st := b.Setup(d)
		b.SetupInto(d, dirty(words), sc)
		sameWords(t, "Setup", d, st.Pack(make([]uint64, st.PackedLen())), words)
	}
}

// TestSetupKernelsAllocateNothing: on a reused scratch and buffer the
// three kernels allocate nothing at N=1024.
func TestSetupKernelsAllocateNothing(t *testing.T) {
	b := core.New(10)
	words, sc := newWords(b), core.NewSetupScratch(b)
	rng := rand.New(rand.NewSource(32))
	d, f := perm.Random(b.N(), rng), perm.RandomF(10, rng)
	for name, run := range map[string]func(){
		"SetupInto":     func() { b.SetupInto(d, words, sc) },
		"SelfRouteInto": func() { b.SelfRouteInto(f, words, sc) },
		"SettingInto":   func() { b.SettingInto(d, words, sc) },
	} {
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Errorf("%s: %v allocations a call, want 0", name, a)
		}
	}
}

// FuzzSetupInto turns fuzz bytes into a permutation of N = 2 to 1024 —
// an F(n) member from a byte-seeded RandomF, or a shuffle driven by the
// bytes themselves — and holds SetupInto and SettingInto to their
// oracles on it, each on a dirty buffer.
func FuzzSetupInto(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 7, 3, 250, 9})
	f.Add([]byte{15, 42, 1, 1, 200})
	f.Add([]byte{19, 0, 0, 0, 1})
	f.Add([]byte{14, 99})
	nets := make([]*core.Network, 11)
	for n := 1; n <= 10; n++ {
		nets[n] = core.New(n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]>>1)%10
		b, rest := nets[n], data[1:]
		var d perm.Perm
		if data[0]&1 != 0 {
			var seed int64
			for _, c := range rest {
				seed = seed*131 + int64(c)
			}
			d = perm.RandomF(n, rand.New(rand.NewSource(seed)))
		} else {
			// Fisher-Yates with the bytes, cycled, as the random source.
			d = perm.Identity(b.N())
			for i := len(d) - 1; i > 0 && len(rest) > 0; i-- {
				j := int(rest[(len(d)-1-i)%len(rest)]) % (i + 1)
				d[i], d[j] = d[j], d[i]
			}
		}
		words, sc := newWords(b), core.NewSetupScratch(b)
		checkSetupInto(t, b, d, words, sc)
		checkSettingInto(t, b, d, words, sc)
	})
}

// benchKernel times one kernel over 64 permutations of N=1024 cycled,
// into one reused buffer and scratch.
func benchKernel(b *testing.B, draw func(*rand.Rand) perm.Perm, kernel func(*core.Network, perm.Perm, []uint64, *core.SetupScratch)) {
	net := core.New(10)
	rng := rand.New(rand.NewSource(33))
	perms := make([]perm.Perm, 64)
	for i := range perms {
		perms[i] = draw(rng)
	}
	words, sc := newWords(net), core.NewSetupScratch(net)
	b.ReportAllocs()
	b.SetBytes(int64(net.SwitchCount() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(net, perms[i%len(perms)], words, sc)
	}
}

// BenchmarkSetupInto times the looping kernel on uniform permutations
// of N=1024, the cost of a looped miss or a frame.
func BenchmarkSetupInto(b *testing.B) {
	benchKernel(b, func(rng *rand.Rand) perm.Perm { return perm.Random(1024, rng) },
		func(net *core.Network, d perm.Perm, words []uint64, sc *core.SetupScratch) {
			net.SetupInto(d, words, sc)
		})
}

// BenchmarkSelfRouteInto times the self-routing kernel on F(n) members
// of N=1024, the cost of a self-routed miss.
func BenchmarkSelfRouteInto(b *testing.B) {
	benchKernel(b, func(rng *rand.Rand) perm.Perm { return perm.RandomF(10, rng) },
		func(net *core.Network, d perm.Perm, words []uint64, sc *core.SetupScratch) {
			net.SelfRouteInto(d, words, sc)
		})
}
