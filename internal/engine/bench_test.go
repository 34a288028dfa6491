package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// The acceptance benchmark: at N=1024, a warm cache hit must beat the
// per-call Setup+route baseline by at least 5x. Run with
//
//	go test -bench=BenchmarkCache -benchtime=100x ./internal/engine
const benchLogN = 10 // N = 1024

func benchPayload(n int) []int {
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return data
}

// BenchmarkCacheBaselinePerCallSetup is the no-engine baseline every
// request pays without a plan cache: looping Setup, gate-level route,
// payload application.
func BenchmarkCacheBaselinePerCallSetup(b *testing.B) {
	net := core.New(benchLogN)
	d := perm.Random(1<<benchLogN, rand.New(rand.NewSource(1)))
	data := benchPayload(1 << benchLogN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := net.Setup(d)
		res := net.ExternalRoute(d, st)
		if perm.Apply(res.Realized, data)[d[0]] != 0 {
			b.Fatal("misroute")
		}
	}
}

// BenchmarkCacheCold forces a miss on every request by cycling far more
// distinct permutations than the cache holds. Uniform permutations are
// essentially never in F(n), so every miss takes the looping fallback
// after the self-routing kernel's first conflict.
func BenchmarkCacheCold(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	benchColdMisses(b, func() perm.Perm { return perm.Random(1<<benchLogN, rng) })
}

// BenchmarkCacheColdSelfRouted is BenchmarkCacheCold over F(n)
// members: every miss is settled by the self-routing kernel alone.
func BenchmarkCacheColdSelfRouted(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	benchColdMisses(b, func() perm.Perm { return perm.RandomF(benchLogN, rng) })
}

func benchColdMisses(b *testing.B, draw func() perm.Perm) {
	b.ReportAllocs()
	eng, err := New[int](Config{LogN: benchLogN, CacheCapacity: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	perms := make([]perm.Perm, 128)
	for i := range perms {
		perms[i] = draw()
	}
	data := benchPayload(1 << benchLogN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := eng.Route(perms[i%len(perms)], data); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.StopTimer()
	reportHitRate(b, eng)
}

// BenchmarkCacheColdServed is the miss path in benesd's configuration:
// the default cache and a flight recorder. As in the bench's route-cold
// workload, three requests in four are uniform random permutations (the
// looping fallback) and one is an F(n) member. It cycles 2,048 distinct
// permutations through the 1,024-entry cache, so every shard is handed
// more permutations than it holds, each is evicted before it comes
// round again, and every request misses as a never-seen one does.
func BenchmarkCacheColdServed(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	perms := make([]perm.Perm, 2*DefaultCacheCapacity)
	for i := range perms {
		if i%4 == 3 {
			perms[i] = perm.RandomF(benchLogN, rng)
		} else {
			perms[i] = perm.Random(1<<benchLogN, rng)
		}
	}
	eng, err := New[int](Config{LogN: benchLogN, Recorder: netsim.NewRecorder(core.New(benchLogN), 2)})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	data := benchPayload(1 << benchLogN)
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := eng.Route(perms[i%len(perms)], data); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.StopTimer()
	reportHitRate(b, eng)
}

// BenchmarkCacheWarm serves one permutation repeatedly: after the first
// miss, every request replays the cached plan.
func BenchmarkCacheWarm(b *testing.B) {
	eng, err := New[int](Config{LogN: benchLogN})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	d := perm.Random(1<<benchLogN, rand.New(rand.NewSource(3)))
	data := benchPayload(1 << benchLogN)
	eng.Route(d, data) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := eng.Route(d, data); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.StopTimer()
	reportHitRate(b, eng)
}

// BenchmarkCacheWarmCycle serves a working set of 64 cached plans in
// rotation, the route-warm traffic shape: every request is a cache hit
// whose setting differs from the previous one, so with the flight
// recorder on each pass flips about half the switches. The
// recorder=off row is the floor the recorder's cost is read against.
func BenchmarkCacheWarmCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	perms := make([]perm.Perm, 64)
	for i := range perms {
		perms[i] = perm.Random(1<<benchLogN, rng)
	}
	data := benchPayload(1 << benchLogN)
	for _, on := range []bool{false, true} {
		name := "recorder=off"
		var rec *netsim.Recorder
		if on {
			name = "recorder=on"
			rec = netsim.NewRecorder(core.New(benchLogN), 2)
		}
		b.Run(name, func(b *testing.B) {
			eng, err := New[int](Config{LogN: benchLogN, Recorder: rec})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for _, d := range perms {
				eng.Route(d, data) // warm every plan
			}
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := eng.Route(perms[i%len(perms)], data); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			b.StopTimer()
			reportHitRate(b, eng)
		})
	}
}

// BenchmarkRouteMulticastWarm serves 16 cached copy-network plans in
// rotation at N=256, broadcasts from distinct roots alternating with
// fan-out maps (32 sources feeding three quarters of the outputs):
// every request is a cache hit, so an op is the mapping compare, the
// payload fan-out, the three phases' flips and the backward walk of
// every assigned output, with the recorder off and on.
func BenchmarkRouteMulticastWarm(b *testing.B) {
	const logN = 8
	maps := mixedMappings(1<<logN, 16, rand.New(rand.NewSource(8)))
	data := benchPayload(1 << logN)
	for _, on := range []bool{false, true} {
		name := "recorder=off"
		var rec *netsim.Recorder
		if on {
			name = "recorder=on"
			rec = netsim.NewRecorder(core.New(logN), 2)
		}
		b.Run(name, func(b *testing.B) {
			eng, err := New[int](Config{LogN: logN, Recorder: rec})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for _, m := range maps {
				eng.RouteMulticast(m, data) // warm every plan
			}
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := eng.RouteMulticast(maps[i%len(maps)], data); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			b.StopTimer()
			reportHitRate(b, eng)
		})
	}
}

func reportHitRate(b *testing.B, eng *Engine[int]) {
	b.Helper()
	s := eng.Stats()
	b.ReportMetric(s.HitRate, "hit-rate")
}

// BenchmarkStats times one Stats snapshot of an N=256 engine whose
// counters and histograms have all moved: the cost /stats, the fabric's
// per-plane view and the journal checkpoint source pay per call.
func BenchmarkStats(b *testing.B) {
	const logN = 8
	eng, err := New[int](Config{LogN: logN, Recorder: netsim.NewRecorder(core.New(logN), 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	data := benchPayload(1 << logN)
	for i := 0; i < 8; i++ {
		d := perm.Random(1<<logN, rng)
		eng.Route(d, data)
		eng.Route(d, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Stats().Requests != 16 {
			b.Fatal("lost requests")
		}
	}
}
