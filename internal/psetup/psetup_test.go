package psetup

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// serialWords returns the serial kernel's packed setting for p.
func serialWords(b *core.Network, p perm.Perm) []uint64 {
	words := make([]uint64, b.Stages()*b.StageWords())
	b.SetupInto(p, words, core.NewSetupScratch(b))
	return words
}

// assertIdentical fails unless par is bit-identical to seq, word by
// word — the contract every schedule of the parallel setup must honor.
func assertIdentical(t *testing.T, seq, par []uint64, ctx string) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d words vs %d", ctx, len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("%s: word %d = %#x, serial kernel wrote %#x", ctx, i, par[i], seq[i])
		}
	}
}

// realizes reports whether a packed setting routes p at gate level.
func realizes(b *core.Network, p perm.Perm, words []uint64) bool {
	st := b.NewStates()
	st.Unpack(words)
	return b.ExternalRoute(p, st).OK()
}

// workerCounts is the differential battery's schedule matrix: the
// degenerate pool (never forks), the minimal concurrent pool, and
// everything the machine has.
func workerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// TestDifferentialExhaustiveN8 holds the parallel setup bit-identical
// to core.Network.SetupInto over every one of the 8! permutations of
// B(3), for worker counts 1, 2, and GOMAXPROCS with the smallest
// cutoff asked for (2, raised to 128).
func TestDifferentialExhaustiveN8(t *testing.T) {
	b := core.New(3)
	for _, w := range workerCounts() {
		r := New(b, Config{Workers: w, SerialCutoff: 2})
		count := 0
		perm.ForEach(8, func(p perm.Perm) bool {
			seq := serialWords(b, p)
			par, err := r.Setup(p)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", w, p, err)
			}
			assertIdentical(t, seq, par, "workers="+string(rune('0'+w))+" exhaustive")
			count++
			return true
		})
		if count != 40320 {
			t.Fatalf("enumerated %d permutations, want 8! = 40320", count)
		}
	}
}

// TestDifferentialRandomSweep sweeps seeded random permutations at
// N=16..1024 across worker counts and cutoffs, including a cutoff
// larger than N (the all-serial schedule) and cutoffs below the
// 128-line floor (maximum fan-out: every block of 256 lines or more
// may fork).
func TestDifferentialRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for n := 4; n <= 10; n++ {
		b := core.New(n)
		N := 1 << uint(n)
		for _, w := range workerCounts() {
			for _, cutoff := range []int{2, 64, 2 * N} {
				r := New(b, Config{Workers: w, SerialCutoff: cutoff})
				for trial := 0; trial < 8; trial++ {
					p := perm.Random(N, rng)
					seq := serialWords(b, p)
					par, err := r.Setup(p)
					if err != nil {
						t.Fatalf("n=%d workers=%d cutoff=%d: %v", n, w, cutoff, err)
					}
					assertIdentical(t, seq, par, "random sweep")
				}
			}
		}
	}
}

// TestSetupIntoReusesWords: a caller-owned buffer with every bit set
// must be fully overwritten, at a size that forks (N=1024) and one
// that does not (N=64).
func TestSetupIntoReusesWords(t *testing.T) {
	rng := rand.New(rand.NewSource(422))
	for _, n := range []int{6, 10} {
		b := core.New(n)
		r := New(b, Config{Workers: 2, SerialCutoff: 8})
		words := make([]uint64, b.Stages()*b.StageWords())
		for trial := 0; trial < 10; trial++ {
			for i := range words {
				words[i] = ^uint64(0)
			}
			p := perm.Random(b.N(), rng)
			if err := r.SetupInto(p, words); err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, serialWords(b, p), words, "reused words")
		}
	}
}

// TestSerialCutoffFloor: a cutoff below 128 lines is raised to 128,
// the smallest block that owns whole setting words; larger ones stay.
func TestSerialCutoffFloor(t *testing.T) {
	b := core.New(10)
	for cutoff, want := range map[int]int{0: DefaultSerialCutoff, 2: 128, 64: 128, 128: 128, 512: 512} {
		if got := New(b, Config{SerialCutoff: cutoff}).cutoff; got != want {
			t.Errorf("SerialCutoff %d: effective cutoff %d, want %d", cutoff, got, want)
		}
	}
}

// TestSetupErrors: invalid input must come back as an error — never a
// panic, never states.
func TestSetupErrors(t *testing.T) {
	b := core.New(3)
	r := New(b, Config{})
	for name, bad := range map[string]perm.Perm{
		"duplicate":    {0, 0, 1, 1, 2, 2, 3, 3},
		"short":        perm.Identity(4),
		"long":         perm.Identity(16),
		"out-of-range": {0, 1, 2, 3, 4, 5, 6, 8},
		"negative":     {-1, 1, 2, 3, 4, 5, 6, 7},
		"nil":          nil,
	} {
		words, err := r.Setup(bad)
		if err == nil {
			t.Errorf("%s: Setup accepted invalid input %v", name, bad)
		}
		if words != nil {
			t.Errorf("%s: Setup returned a setting alongside an error", name)
		}
	}
	// SetupInto must also reject a buffer too short for the setting.
	if err := r.SetupInto(perm.Identity(8), make([]uint64, b.Stages()-1)); err == nil {
		t.Error("SetupInto accepted a buffer one word short")
	}
}

// TestRealizes: parallel-setup words must actually route the
// permutation at gate level, not just match the serial bits.
func TestRealizes(t *testing.T) {
	rng := rand.New(rand.NewSource(424))
	for _, n := range []int{1, 2, 5, 9} {
		b := core.New(n)
		r := New(b, Config{SerialCutoff: 4})
		for trial := 0; trial < 10; trial++ {
			p := perm.Random(1<<uint(n), rng)
			words, err := r.Setup(p)
			if err != nil {
				t.Fatal(err)
			}
			if !realizes(b, p, words) {
				t.Fatalf("n=%d: parallel setup failed to realize %v", n, p)
			}
		}
	}
}

// TestConcurrentSetups: one Router shared by many goroutines must keep
// every call's setting independent (the scratch pools must not leak
// state across concurrent calls). Run under -race in CI.
func TestConcurrentSetups(t *testing.T) {
	b := core.New(8)
	r := New(b, Config{Workers: 2, SerialCutoff: 16})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				p := perm.Random(256, rng)
				words, err := r.Setup(p)
				if err != nil {
					errs <- err
					return
				}
				if !realizes(b, p, words) {
					errs <- errMisroute
					return
				}
			}
		}(int64(500 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMisroute = &misrouteError{}

type misrouteError struct{}

func (*misrouteError) Error() string { return "concurrent parallel setup misrouted" }
