package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
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

// BenchmarkWorkers sweeps the worker pool from 1 to GOMAXPROCS under a
// mixed warm workload submitted in flights, measuring batch throughput.
func BenchmarkWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	perms := make([]perm.Perm, 32)
	for i := range perms {
		perms[i] = perm.Random(1<<benchLogN, rng)
	}
	data := benchPayload(1 << benchLogN)
	const flight = 256
	for w := 1; w <= runtime.GOMAXPROCS(0); w *= 2 {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, err := New[int](Config{LogN: benchLogN, Workers: w, QueueDepth: flight})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			reqs := make([]Request[int], flight)
			for i := range reqs {
				reqs[i] = Request[int]{Dest: perms[i%len(perms)], Data: data}
			}
			eng.RouteBatch(reqs) // warm all plans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, resp := range eng.RouteBatch(reqs) {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(flight), "vectors/op")
		})
	}
}

func reportHitRate(b *testing.B, eng *Engine[int]) {
	b.Helper()
	s := eng.Stats()
	b.ReportMetric(s.HitRate, "hit-rate")
}
