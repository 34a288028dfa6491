package engine

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// TestBenchEngineArtifact is the CI bench-snapshot hook: when
// BENCH_ENGINE_JSON names a file, it times the warm-cache and cold-miss
// serving paths against the per-call Setup baseline — with gate-level
// accounting enabled, the configuration the allocation budget is
// promised for — and writes a small JSON artifact there. Without the
// env var the test is skipped, so normal runs stay fast.
func TestBenchEngineArtifact(t *testing.T) {
	path := os.Getenv("BENCH_ENGINE_JSON")
	if path == "" {
		t.Skip("BENCH_ENGINE_JSON not set")
	}
	const logN = benchLogN
	d := perm.Random(1<<logN, rand.New(rand.NewSource(3)))
	data := benchPayload(1 << logN)

	baseline := testing.Benchmark(func(b *testing.B) {
		net := core.New(logN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := net.Setup(d)
			res := net.ExternalRoute(d, st)
			if perm.Apply(res.Realized, data)[d[0]] != 0 {
				b.Fatal("misroute")
			}
		}
	})

	warm := testing.Benchmark(func(b *testing.B) {
		rec := netsim.NewRecorder(core.New(logN), 2)
		eng, err := New[int](Config{LogN: logN, Recorder: rec})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		eng.Route(d, data) // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := eng.Route(d, data); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	})

	cold := testing.Benchmark(func(b *testing.B) {
		rec := netsim.NewRecorder(core.New(logN), 2)
		eng, err := New[int](Config{LogN: logN, CacheCapacity: 16, Recorder: rec})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		rng := rand.New(rand.NewSource(2))
		perms := make([]perm.Perm, 128)
		for i := range perms {
			perms[i] = perm.Random(1<<logN, rng)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := eng.Route(perms[i%len(perms)], data); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	})

	artifact := map[string]any{
		"log_n":                logN,
		"baseline_setup_ns_op": baseline.NsPerOp(),
		"warm_ns_op":           warm.NsPerOp(),
		"warm_allocs_op":       warm.AllocsPerOp(),
		"cold_ns_op":           cold.NsPerOp(),
		"speedup_warm":         float64(baseline.NsPerOp()) / float64(warm.NsPerOp()),
	}
	out, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, out)
	if warm.AllocsPerOp() > 1 {
		t.Fatalf("warm path allocates %d objects/op with accounting enabled, budget is 1", warm.AllocsPerOp())
	}
}
