package psetup

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// assertIdentical fails unless par is bit-identical to seq, stage by
// stage and switch by switch — the contract every schedule of the
// parallel setup must honor.
func assertIdentical(t *testing.T, seq, par core.States, ctx string) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d stages vs %d", ctx, len(par), len(seq))
	}
	for s := range seq {
		for i := range seq[s] {
			if seq[s][i] != par[s][i] {
				t.Fatalf("%s: states differ at stage %d switch %d", ctx, s, i)
			}
		}
	}
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
// to core.Network.Setup over every one of the 8! permutations of B(3),
// for worker counts 1, 2, and GOMAXPROCS with the fan-out forced all
// the way down (cutoff 2).
func TestDifferentialExhaustiveN8(t *testing.T) {
	b := core.New(3)
	for _, w := range workerCounts() {
		r := New(b, Config{Workers: w, SerialCutoff: 2})
		count := 0
		perm.ForEach(8, func(p perm.Perm) bool {
			seq := b.Setup(p)
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
// larger than N (the all-serial schedule) and the smallest legal
// cutoff (maximum fan-out).
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
					seq := b.Setup(p)
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

// TestSetupIntoReusesStates: a dirty caller-owned states buffer must be
// fully overwritten.
func TestSetupIntoReusesStates(t *testing.T) {
	b := core.New(6)
	r := New(b, Config{Workers: 2, SerialCutoff: 8})
	rng := rand.New(rand.NewSource(422))
	st := b.NewStates()
	for trial := 0; trial < 10; trial++ {
		p := perm.Random(64, rng)
		if err := r.SetupInto(p, st); err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, b.Setup(p), st, "reused states")
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
		st, err := r.Setup(bad)
		if err == nil {
			t.Errorf("%s: Setup accepted invalid input %v", name, bad)
		}
		if st != nil {
			t.Errorf("%s: Setup returned states alongside an error", name)
		}
	}
	// SetupInto must also reject a malformed states buffer.
	if err := r.SetupInto(perm.Identity(8), make(core.States, 2)); err == nil {
		t.Error("SetupInto accepted a states buffer with the wrong stage count")
	}
	if err := r.SetupInto(perm.Identity(8), make(core.States, b.Stages())); err == nil {
		t.Error("SetupInto accepted a states buffer with empty stages")
	}
}

// TestRealizes: parallel-setup states must actually route the
// permutation at gate level, not just match the serial bits.
func TestRealizes(t *testing.T) {
	rng := rand.New(rand.NewSource(424))
	for _, n := range []int{1, 2, 5, 9} {
		b := core.New(n)
		r := New(b, Config{SerialCutoff: 4})
		for trial := 0; trial < 10; trial++ {
			p := perm.Random(1<<uint(n), rng)
			st, err := r.Setup(p)
			if err != nil {
				t.Fatal(err)
			}
			if !b.ExternalRoute(p, st).OK() {
				t.Fatalf("n=%d: parallel setup failed to realize %v", n, p)
			}
		}
	}
}

// TestConcurrentSetups: one Router shared by many goroutines must keep
// every call's states independent (the scratch pools must not leak
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
				st, err := r.Setup(p)
				if err != nil {
					errs <- err
					return
				}
				if !b.ExternalRoute(p, st).OK() {
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
