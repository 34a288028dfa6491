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

// TestEngineParallelSetupDifferential: an engine with the parallel
// cold-setup path on must serve exactly the payloads and cache
// behavior of a serial engine, with the plan kind recording the
// multicore path.
func TestEngineParallelSetupDifferential(t *testing.T) {
	const logN = 6
	serial, err := New[int](Config{LogN: logN})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	par, err := New[int](Config{LogN: logN, ParallelSetup: true, SetupWorkers: 2, SetupCutoff: 8, SetupMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	rng := rand.New(rand.NewSource(77))
	data := make([]int, 1<<logN)
	for i := range data {
		data[i] = i * 11
	}
	for trial := 0; trial < 25; trial++ {
		d := nonFPerm(t, par.Network(), rng)
		want := serial.Route(d, data)
		got := par.Route(d, data)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("route errors: serial %v, parallel %v", want.Err, got.Err)
		}
		if got.Kind != PlanParallel {
			t.Fatalf("parallel engine served a non-F(n) miss with kind %v", got.Kind)
		}
		if want.Kind != PlanLooped {
			t.Fatalf("serial engine served a non-F(n) miss with kind %v", want.Kind)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("trial %d: payload diverges at output %d", trial, i)
			}
		}
		// Warm repeat: the cached parallel plan serves hits like any other.
		if again := par.Route(d, data); !again.CacheHit || again.Kind != PlanParallel {
			t.Fatalf("warm repeat: hit=%v kind=%v", again.CacheHit, again.Kind)
		}
	}
	snap := par.Stats()
	if snap.ParSetups == 0 || snap.Fallbacks != snap.ParSetups {
		t.Errorf("parallel setups %d should equal non-F(n) fallbacks %d", snap.ParSetups, snap.Fallbacks)
	}
	if snap.ParFallbacks != 0 {
		t.Errorf("parallel path fell back serially %d times on valid input", snap.ParFallbacks)
	}
	if snap.SetupPar.Count != snap.ParSetups {
		t.Errorf("setup_parallel histogram count %d != parallel setups %d", snap.SetupPar.Count, snap.ParSetups)
	}
	if snap.SubplanHits+snap.SubplanMisses != 2*snap.ParSetups {
		t.Errorf("sub-plan books unbalanced: %d hits + %d misses != 2 x %d setups",
			snap.SubplanHits, snap.SubplanMisses, snap.ParSetups)
	}
}

// TestEngineColdMissRaceStress is the adversarial cold path under the
// race detector: concurrent cold misses on distinct non-F(n)
// permutations with sub-plan memoization on. Every response must carry
// the exact permuted payload, and afterwards the cache books must
// balance: every request resolved as exactly one hit or miss, every
// parallel setup charged exactly two sub-plan lookups, and no
// cross-kind hash pollution (collisions).
func TestEngineColdMissRaceStress(t *testing.T) {
	const (
		logN       = 8
		goroutines = 8
		perGor     = 24
	)
	eng, err := New[int](Config{
		LogN:          logN,
		CacheCapacity: 4096,
		ParallelSetup: true,
		SetupWorkers:  runtime.GOMAXPROCS(0),
		SetupCutoff:   16,
		SetupMemo:     true,
	})
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
	if snap.ParSetups != snap.Fallbacks {
		t.Errorf("parallel setups %d != non-F(n) fallbacks %d", snap.ParSetups, snap.Fallbacks)
	}
	if snap.ParFallbacks != 0 {
		t.Errorf("serial retries = %d on valid input", snap.ParFallbacks)
	}
	if snap.SubplanHits+snap.SubplanMisses != 2*snap.ParSetups {
		t.Errorf("sub-plan books unbalanced: %d hits + %d misses != 2 x %d parallel setups",
			snap.SubplanHits, snap.SubplanMisses, snap.ParSetups)
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
// self-routing kernel and the serial looping fallback set up into a
// pooled working setting on pooled scratch; a parallel setup with
// SetupMemo also validates again, hands psetup's two unpacked
// half-network blocks to the memo and keeps them packed. It measures
// acquire, not Route, so the routed output vector (8 KB at N=1024)
// stays out of the budget.
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
		cfg      Config
		draw     func() perm.Perm
		kind     PlanKind
		maxBytes uint64
	}{
		{"self-routed", Config{}, member, PlanSelfRouted, 16 << 10},
		{"looped", Config{}, random, PlanLooped, 16 << 10},
		{"parallel-memo", Config{ParallelSetup: true, SetupMemo: true}, random, PlanParallel, 48 << 10},
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
// and map slot) and under 2.5 KB for a half-network sub-plan SetupMemo
// keeps (17 stages × 4 words and 512 two-byte entries). A multicast
// plan, over a mix of broadcasts and fan-out maps with a recorder
// attached, holds its three packed phases and its two-byte mapping:
// under 2 KB at N=256 (92 words) and under 8 KB at N=1024 (464 words).
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
	t.Run("sub-plan", func(t *testing.T) {
		eng, err := New[int](Config{LogN: logN})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		memo := &subPlanCache{c: eng.cache, hits: &eng.met.subHits, misses: &eng.met.subMisses}
		const m = logN - 1
		dests := make([]perm.Perm, plans)
		for i := range dests {
			dests[i] = perm.Random(1<<m, rng)
		}
		block := core.New(m)
		per := liveBytes(func() {
			// Each block is allocated here, as psetup allocates the
			// block it hands to Put, so a memo that keeps it counts it.
			for _, d := range dests {
				memo.Put(m, d, block.Setup(d))
			}
		})
		if got := eng.cache.len(); got != plans {
			t.Fatalf("cache holds %d sub-plans, want %d", got, plans)
		}
		if got := memo.Get(m, dests[0]); got.String() != block.Setup(dests[0]).String() {
			t.Fatal("a sub-plan hit must unpack the block that was put")
		}
		t.Logf("cached sub-plan at N=1024: %d B live", per)
		if per > 5<<9 {
			t.Fatalf("a cached sub-plan holds %d B, budget %d B", per, 5<<9)
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
