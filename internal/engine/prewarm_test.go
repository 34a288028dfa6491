package engine

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// TestPrewarm resolves a plan ahead of traffic and checks the
// following Route is a cache hit, for both setup paths.
func TestPrewarm(t *testing.T) {
	e, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	data := []int{0, 1, 2, 3, 4, 5, 6, 7}

	selfD := perm.BitReversal(3)
	kind, hit, err := e.Prewarm(selfD)
	if err != nil || kind != PlanSelfRouted || hit {
		t.Fatalf("prewarm bit reversal: kind=%v hit=%v err=%v, want self-routed miss", kind, hit, err)
	}
	if _, hit, err := e.Prewarm(selfD); err != nil || !hit {
		t.Fatalf("second prewarm must hit (hit=%v err=%v)", hit, err)
	}
	resp := e.Route(selfD, data)
	if resp.Err != nil || !resp.CacheHit || resp.Kind != PlanSelfRouted {
		t.Fatalf("route after prewarm: %+v, want self-routed cache hit", resp)
	}

	// A permutation outside F(3): prewarm takes the looping fallback.
	loopD := findNonF(t)
	kind, _, err = e.Prewarm(loopD)
	if err != nil || kind != PlanLooped {
		t.Fatalf("prewarm non-F: kind=%v err=%v, want looped", kind, err)
	}
	if resp := e.Route(loopD, data); !resp.CacheHit {
		t.Fatal("route after looped prewarm must be a cache hit")
	}

	if got := e.Stats().Prewarms; got != 3 {
		t.Fatalf("prewarms counter = %d, want 3", got)
	}
}

// TestPrewarmErrors covers the reject paths: wrong length, invalid
// permutation, closed engine.
func TestPrewarmErrors(t *testing.T) {
	e, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Prewarm(perm.Identity(4)); err == nil {
		t.Fatal("size-4 prewarm on N=8 must be rejected")
	}
	if _, _, err := e.Prewarm(perm.Perm{0, 0, 1, 1, 2, 2, 3, 3}); err == nil {
		t.Fatal("non-permutation prewarm must be rejected")
	}
	e.Close()
	if _, _, err := e.Prewarm(perm.Identity(8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("prewarm on closed engine: %v, want ErrClosed", err)
	}
}

// findNonF returns a fixed N=8 permutation outside F(3).
func findNonF(t *testing.T) perm.Perm {
	t.Helper()
	// Vector (1,3,0,2,7,5,4,6)? Just scan deterministically.
	gen := perm.Identity(8)
	for i := 0; i < 5000; i++ {
		// Deterministic Fisher-Yates-ish scramble via a simple LCG.
		seed := i*2654435761 + 1
		p := gen.Clone()
		for j := len(p) - 1; j > 0; j-- {
			seed = seed*1103515245 + 12345
			k := (seed >> 8) & 0x7fffffff % (j + 1)
			p[j], p[k] = p[k], p[j]
		}
		if !perm.InF(p) {
			return p
		}
	}
	t.Fatal("no non-F permutation found")
	return nil
}

// TestPrewarmMissBytes is the cold-path allocation guard: a plan-cache
// miss at N=1024 with a flight recorder allocates little beyond the
// plan the cache keeps (~20 KB of States, Dest and packed mask). The
// self-routing kernel and the serial looping fallback run on pooled
// scratch; a parallel setup with SetupMemo also keeps its two
// half-network sub-plans.
func TestPrewarmMissBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	const logN = 10
	rng := rand.New(rand.NewSource(15))
	member := func() perm.Perm { return perm.RandomF(logN, rng) }
	random := func() perm.Perm { return perm.Random(1<<logN, rng) }
	cases := []struct {
		name     string
		cfg      Config
		draw     func() perm.Perm
		kind     PlanKind
		maxBytes uint64
	}{
		{"self-routed", Config{}, member, PlanSelfRouted, 40 << 10},
		{"looped", Config{}, random, PlanLooped, 40 << 10},
		{"parallel-memo", Config{ParallelSetup: true, SetupMemo: true}, random, PlanParallel, 80 << 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.LogN = logN
			cfg.Recorder = netsim.NewRecorder(core.New(logN), 2)
			eng, err := New[int](cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			const misses = 32
			perms := make([]perm.Perm, misses+1)
			for i := range perms {
				perms[i] = c.draw()
			}
			// The first miss fills the scratch pools.
			if _, _, err := eng.Prewarm(perms[0]); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, d := range perms[1:] {
				if kind, hit, err := eng.Prewarm(d); err != nil || hit || kind != c.kind {
					t.Fatalf("prewarm: kind=%v hit=%v err=%v, want a %v miss", kind, hit, err, c.kind)
				}
			}
			runtime.ReadMemStats(&m1)
			perMiss := (m1.TotalAlloc - m0.TotalAlloc) / misses
			t.Logf("%s miss at N=1024: %d B allocated", c.name, perMiss)
			if perMiss > c.maxBytes {
				t.Fatalf("%s miss allocates %d B, budget %d B", c.name, perMiss, c.maxBytes)
			}
		})
	}
}
