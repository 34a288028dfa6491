package engine

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/perm"
)

func mkPlan(d perm.Perm) *Plan {
	return &Plan{Kind: PlanLooped, dest: packVec(d, 0), key: hashPerm(d)}
}

// TestCacheEvictionLRU fills a single-shard cache past capacity and
// checks that exactly the least recently used plans are displaced.
func TestCacheEvictionLRU(t *testing.T) {
	var ev, col obs.Counter
	c := newPlanCache(4, 1, &ev, &col)
	perms := make([]perm.Perm, 6)
	for i := range perms {
		p := perm.Identity(8)
		p[0], p[i+1] = p[i+1], p[0] // six distinct transpositions
		perms[i] = p
	}
	for _, p := range perms[:4] {
		c.put(mkPlan(p))
	}
	if c.len() != 4 {
		t.Fatalf("cache should hold 4 plans, has %d", c.len())
	}
	// Touch perms[0] so it becomes most recently used, then overflow by
	// two: the untouched perms[1] and perms[2] must go.
	if c.get(hashPerm(perms[0]), perms[0]) == nil {
		t.Fatal("perms[0] should be cached")
	}
	c.put(mkPlan(perms[4]))
	c.put(mkPlan(perms[5]))
	if got := ev.Value(); got != 2 {
		t.Fatalf("want 2 evictions, got %d", got)
	}
	if c.len() != 4 {
		t.Fatalf("cache should stay at capacity 4, has %d", c.len())
	}
	for i, want := range []bool{true, false, false, true, true, true} {
		got := c.get(hashPerm(perms[i]), perms[i]) != nil
		if got != want {
			t.Fatalf("perms[%d] cached = %v, want %v", i, got, want)
		}
	}
}

// TestCacheCollision simulates a 64-bit hash collision: a lookup whose
// key matches but whose permutation differs must read as a miss, and a
// put under the same key must replace, not corrupt.
func TestCacheCollision(t *testing.T) {
	var ev, col obs.Counter
	c := newPlanCache(8, 1, &ev, &col)
	d1 := perm.Identity(8)
	d2 := perm.BitReversal(3)
	key := hashPerm(d1)
	c.put(&Plan{Kind: PlanSelfRouted, dest: packVec(d1, 0), key: key})
	if c.get(key, d2) != nil {
		t.Fatal("colliding key with different permutation must miss")
	}
	if col.Value() != 1 {
		t.Fatalf("collision miss must be counted, got %d", col.Value())
	}
	// Overwriting under the same key keeps exactly one entry.
	c.put(&Plan{Kind: PlanLooped, dest: packVec(d2, 0), key: key})
	if c.len() != 1 {
		t.Fatalf("replacement should keep one entry, have %d", c.len())
	}
	if pl := c.get(key, d2); pl == nil || pl.Kind != PlanLooped {
		t.Fatal("replacement plan should now be served")
	}
	if c.get(key, d1) != nil {
		t.Fatal("displaced colliding plan must miss")
	}
	if col.Value() != 2 {
		t.Fatalf("both collision misses must be counted, got %d", col.Value())
	}
}

// TestEvictionsSurfacedUnderChurn routes more distinct permutations
// than the cache holds and checks that the displaced plans show up as
// evictions in the public metrics snapshot.
func TestEvictionsSurfacedUnderChurn(t *testing.T) {
	eng, err := New[int](Config{LogN: 3, CacheCapacity: 4, CacheShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 32; i++ {
		if resp := eng.Route(perm.Random(8, rng), payload(8)); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s := eng.Stats()
	if s.Evictions == 0 {
		t.Fatalf("churn past capacity must surface evictions: %+v", s)
	}
	if s.PlansCached > 4 {
		t.Fatalf("cache exceeded capacity: %d plans", s.PlansCached)
	}
	if s.Evictions != s.Misses-int64(s.PlansCached) {
		t.Fatalf("every miss inserts one plan, so evictions must be misses minus plans cached: %+v", s)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"evictions", "collision_misses"} {
		if _, ok := decoded[field]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", field, raw)
		}
	}
}

// TestCacheSharding checks shard rounding, that capacity is spread
// across shards, and that plans spread over every shard.
func TestCacheSharding(t *testing.T) {
	var ev, col obs.Counter
	c := newPlanCache(16, 3, &ev, &col) // shards round up to 4
	if len(c.shards) != 4 {
		t.Fatalf("3 shards should round to 4, got %d", len(c.shards))
	}
	for i := range c.shards {
		if c.shards[i].cap != 4 {
			t.Fatalf("per-shard capacity should be 4, got %d", c.shards[i].cap)
		}
	}
	if c := newPlanCache(0, 0, &ev, &col); len(c.shards) != 1 || c.shards[0].cap != 1 {
		t.Fatal("degenerate config should clamp to one single-entry shard")
	}

	// Routing plans of random permutations reach every shard of a
	// default-config cache, so churning four times its capacity through
	// it leaves it holding exactly CacheCapacity plans.
	eng, err := New[int](Config{LogN: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4*DefaultCacheCapacity; i++ {
		if resp := eng.Route(perm.Random(64, rng), payload(64)); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	for i := range eng.cache.shards {
		if n := eng.cache.shards[i].ll.Len(); n == 0 {
			t.Errorf("shard %d of %d holds no plan", i, len(eng.cache.shards))
		}
	}
	if got := eng.Stats().PlansCached; got != DefaultCacheCapacity {
		t.Fatalf("cache filled past capacity holds %d plans, want %d", got, DefaultCacheCapacity)
	}
}

// TestCacheConcurrent hammers get/put from many goroutines; run under
// -race it checks the locking discipline.
func TestCacheConcurrent(t *testing.T) {
	var ev, col obs.Counter
	c := newPlanCache(32, 8, &ev, &col)
	rng := rand.New(rand.NewSource(3))
	pool := make([]perm.Perm, 64)
	for i := range pool {
		pool[i] = perm.Random(16, rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				d := pool[rng.Intn(len(pool))]
				key := hashPerm(d)
				if pl := c.get(key, d); pl == nil {
					c.put(mkPlan(d))
				} else if !pl.realizes(d) {
					t.Error("cache returned a plan for the wrong permutation")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if c.len() > 64 {
		t.Fatalf("cache exceeded capacity headroom: %d", c.len())
	}
}

// TestHashPerm sanity-checks the key function: equal perms hash equal,
// near-misses hash differently.
func TestHashPerm(t *testing.T) {
	d := perm.BitReversal(4)
	if hashPerm(d) != hashPerm(d.Clone()) {
		t.Fatal("equal permutations must hash equal")
	}
	e := d.Clone()
	e[0], e[15] = e[15], e[0]
	if hashPerm(d) == hashPerm(e) {
		t.Fatal("swapping two destinations should change the hash")
	}
	if hashPerm(perm.Identity(4)) == hashPerm(perm.Identity(8)) {
		t.Fatal("different lengths should change the hash")
	}
}
