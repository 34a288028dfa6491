package core

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// checkSelfRouteInto holds SelfRouteInto to the reference evaluator on
// one permutation: the same verdict, and words bit-identical to
// SelfRoute's states packed when d is realized. words is filled with
// ones before the call, so every check runs on a dirty buffer, and sc
// is reused across calls.
func checkSelfRouteInto(t *testing.T, b *Network, d perm.Perm, words []uint64, sc *SetupScratch) {
	t.Helper()
	for i := range words {
		words[i] = ^uint64(0)
	}
	ref := b.SelfRoute(d)
	if got := b.SelfRouteInto(d, words, sc); got != ref.OK() {
		t.Fatalf("N=%d d=%v: SelfRouteInto = %v, SelfRoute OK = %v", b.N(), d, got, ref.OK())
	}
	if !ref.OK() {
		return
	}
	want := ref.States.Pack(make([]uint64, ref.States.PackedLen()))
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("N=%d d=%v: word %d = %#x, SelfRoute packs %#x", b.N(), d, i, words[i], want[i])
		}
	}
}

// settingWords returns a buffer for one packed setting of b.
func settingWords(b *Network) []uint64 { return make([]uint64, b.Stages()*b.StageWords()) }

// TestSelfRouteIntoExhaustive compares the kernel with SelfRoute on
// every permutation of N = 2, 4 and 8.
func TestSelfRouteIntoExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		b := New(n)
		words, sc := settingWords(b), NewSetupScratch(b)
		perm.ForEach(b.N(), func(d perm.Perm) bool {
			checkSelfRouteInto(t, b, d, words, sc)
			return true
		})
	}
}

// TestSelfRouteIntoRandom compares the kernel with SelfRoute on seeded
// F(n) members (always realized) and uniform draws (almost never
// realized) up to N=1024.
func TestSelfRouteIntoRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 1; n <= 10; n++ {
		b := New(n)
		words, sc := settingWords(b), NewSetupScratch(b)
		for k := 0; k < 20; k++ {
			f := perm.RandomF(n, rng)
			if !b.SelfRouteInto(f, words, sc) {
				t.Fatalf("n=%d: F(n) member %v rejected", n, f)
			}
			checkSelfRouteInto(t, b, f, words, sc)
			checkSelfRouteInto(t, b, perm.Random(b.N(), rng), words, sc)
		}
	}
}

func TestSelfRouteIntoPanicsOnLength(t *testing.T) {
	b := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("SelfRouteInto of a short permutation should panic")
		}
	}()
	b.SelfRouteInto(perm.Identity(4), settingWords(b), NewSetupScratch(b))
}

// FuzzSelfRouteInto turns fuzz bytes into a permutation of N=16 or 64 —
// an F(n) member drawn from a byte-seeded RandomF, or a shuffle driven
// by the bytes themselves — and holds the kernel to SelfRoute on it.
func FuzzSelfRouteInto(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 7, 3, 250, 9})
	f.Add([]byte{2, 42})
	f.Add([]byte{3, 0, 0, 0, 1})
	nets := map[int]*Network{4: New(4), 6: New(6)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 4
		if data[0]&1 != 0 {
			n = 6
		}
		b, rest := nets[n], data[1:]
		var d perm.Perm
		if data[0]&2 != 0 {
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
		checkSelfRouteInto(t, b, d, settingWords(b), NewSetupScratch(b))
	})
}
