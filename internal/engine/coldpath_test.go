package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// nonFPerm draws seeded random permutations until one falls outside
// F(n) — the cold external-setup path under test. Random permutations
// essentially never self-route, but the differential suite must not
// depend on "essentially".
func nonFPerm(t *testing.T, net *core.Network, rng *rand.Rand) perm.Perm {
	t.Helper()
	for tries := 0; tries < 100; tries++ {
		d := perm.Random(net.N(), rng)
		if !net.SelfRoute(d).OK() {
			return d
		}
	}
	t.Fatal("could not draw a non-F(n) permutation")
	return nil
}

// TestEngineColdMissRaceStress is the adversarial cold path under the
// race detector: concurrent cold misses on distinct non-F(n)
// permutations, each setting up into pooled miss scratch. Every
// response must carry the exact permuted payload, and afterwards the
// cache books must balance: every request resolved as exactly one hit
// or miss, every one of them a looping fallback, and no hash
// collisions.
func TestEngineColdMissRaceStress(t *testing.T) {
	const (
		logN       = 8
		goroutines = 8
		perGor     = 24
	)
	eng, err := New[int](Config{LogN: logN, CacheCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Distinct non-F(n) permutations, drawn up front so every miss is
	// genuinely cold (no accidental repeats warming the cache).
	rng := rand.New(rand.NewSource(88))
	seen := map[string]bool{}
	perms := make([]perm.Perm, 0, goroutines*perGor)
	for len(perms) < goroutines*perGor {
		d := nonFPerm(t, eng.Network(), rng)
		if k := d.String(); !seen[k] {
			seen[k] = true
			perms = append(perms, d)
		}
	}
	data := make([]int, 1<<logN)
	for i := range data {
		data[i] = i ^ 0x55
	}

	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(mine []perm.Perm) {
			defer wg.Done()
			for _, d := range mine {
				resp := eng.Route(d, data)
				if resp.Err != nil {
					failures <- "route error: " + resp.Err.Error()
					return
				}
				want := perm.Apply(d, data)
				for i := range want {
					if resp.Data[i] != want[i] {
						failures <- "misdelivered payload at output " + d.String()
						return
					}
				}
			}
		}(perms[g*perGor : (g+1)*perGor])
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatal(f)
	}

	snap := eng.Stats()
	total := int64(goroutines * perGor)
	if snap.Requests != total {
		t.Fatalf("requests = %d, want %d", snap.Requests, total)
	}
	if snap.Hits+snap.Misses != total {
		t.Errorf("cache books unbalanced: %d hits + %d misses != %d requests", snap.Hits, snap.Misses, total)
	}
	if snap.Errors != 0 {
		t.Errorf("errors = %d on all-valid traffic", snap.Errors)
	}
	if snap.Fallbacks != total {
		t.Errorf("looping fallbacks = %d, want one per cold non-F(n) request, %d", snap.Fallbacks, total)
	}
	if snap.Collisions != 0 {
		t.Errorf("hash collisions = %d across %d distinct keys", snap.Collisions, total)
	}
	if snap.PlansCached > 4096 {
		t.Errorf("plans cached %d exceeds capacity", snap.PlansCached)
	}
}

// TestMissBytes is the cold-path allocation guard: a plan-cache miss at
// N=1024 with a flight recorder allocates little beyond the plan the
// cache keeps (~3.5 KB: 1,216 B of packed setting, a 2 KB destination
// vector) and the 8 KB of scratch Validate allocates. The
// self-routing kernel and the looping fallback set up into a pooled
// working setting on pooled scratch. It measures acquire, not Route,
// so the routed output vector (8 KB at N=1024) stays out of the
// budget.
func TestMissBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	const logN = 10
	rng := rand.New(rand.NewSource(15))
	member := func() perm.Perm { return perm.RandomF(logN, rng) }
	random := func() perm.Perm { return perm.Random(1<<logN, rng) }
	cases := []struct {
		name     string
		draw     func() perm.Perm
		kind     PlanKind
		maxBytes uint64
	}{
		{"self-routed", member, PlanSelfRouted, 16 << 10},
		{"looped", random, PlanLooped, 16 << 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := New[int](Config{LogN: logN, Recorder: netsim.NewRecorder(core.New(logN), 2)})
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
			if _, _, err := eng.acquire(hashPerm(perms[0]), perms[0]); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, d := range perms[1:] {
				if pl, hit, err := eng.acquire(hashPerm(d), d); err != nil || hit || pl.Kind != c.kind {
					t.Fatalf("acquire: plan=%+v hit=%v err=%v, want a %v miss", pl, hit, err, c.kind)
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

// TestPlanBytes holds the live heap one cached plan costs, read as
// HeapAlloc after a collection with the plans held by the cache, so
// working memory a miss drops does not count. At N=1024: under 4 KB for
// a routing plan (its packed setting of 19 stages × 8 words, its
// two-byte destination vector, the Plan, and the LRU's list element
// and map slot). A multicast plan, over a mix of broadcasts and fan-out
// maps with a recorder attached, holds its three packed phases and its
// two-byte mapping: under 2 KB at N=256 (92 words) and under 8 KB at
// N=1024 (464 words).
func TestPlanBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	const logN, plans = 10, 128
	rng := rand.New(rand.NewSource(20))
	// Two collections around fill empty every sync.Pool (the first
	// moves pooled scratch to the victim cache, the second drops it), so
	// what stays live is what the cache keeps.
	liveBytes := func(fill func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fill()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		return (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / plans
	}
	t.Run("plan", func(t *testing.T) {
		eng, err := New[int](Config{LogN: logN, Recorder: netsim.NewRecorder(core.New(logN), 2)})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		perms := make([]perm.Perm, plans)
		for i := range perms {
			perms[i] = perm.Random(1<<logN, rng)
		}
		per := liveBytes(func() {
			for _, d := range perms {
				if _, _, err := eng.acquire(hashPerm(d), d); err != nil {
					t.Fatal(err)
				}
			}
		})
		runtime.KeepAlive(perms)
		if got := eng.cache.len(); got != plans {
			t.Fatalf("cache holds %d plans, want %d", got, plans)
		}
		t.Logf("cached plan at N=1024: %d B live", per)
		if per > 4<<10 {
			t.Fatalf("a cached plan holds %d B, budget %d B", per, 4<<10)
		}
	})
	for _, tc := range []struct {
		logN   int
		budget int64
	}{{8, 2 << 10}, {10, 8 << 10}} {
		t.Run(fmt.Sprintf("multicast-%d", 1<<tc.logN), func(t *testing.T) {
			eng, err := New[int](Config{LogN: tc.logN, Recorder: netsim.NewRecorder(core.New(tc.logN), 2)})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			maps := mixedMappings(1<<tc.logN, plans, rng)
			per := liveBytes(func() {
				for _, m := range maps {
					if _, _, err := eng.acquireMulticast(hashMapping(m), m); err != nil {
						t.Fatal(err)
					}
				}
			})
			runtime.KeepAlive(maps)
			if got := eng.cache.len(); got != plans {
				t.Fatalf("cache holds %d plans, want %d", got, plans)
			}
			t.Logf("cached multicast plan at N=%d: %d B live", 1<<tc.logN, per)
			if per > tc.budget {
				t.Fatalf("a cached multicast plan holds %d B, budget %d B", per, tc.budget)
			}
		})
	}
}
