package fabric

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// artifactEnvInt reads a positive integer knob for the bench artifact,
// falling back to def when the variable is unset.
func artifactEnvInt(t *testing.T, name string, def int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		t.Fatalf("%s must be a positive integer, got %q", name, s)
	}
	return v
}

// TestBenchFabricArtifact is the CI bench-snapshot hook: when
// BENCH_FABRIC_JSON names a file, it measures end-to-end packet
// throughput (Send → VOQ → scheduler → plane → delivery) with the
// gate-level flight recorder on, for one plane versus BENCH_PLANES
// planes (default 2), and writes a small JSON artifact there. Without
// the env var the test is skipped, so normal runs stay fast and
// deterministic.
//
// The workload is pinned, not calibrated: exactly BENCH_ITERS packets
// per configuration (default 200000) after a short warmup, so two runs
// on the same machine do identical work and the artifact diff in
// ci/bench_diff.sh compares like with like. ci/bench_snapshot.sh pins
// GOMAXPROCS as well.
func TestBenchFabricArtifact(t *testing.T) {
	path := os.Getenv("BENCH_FABRIC_JSON")
	if path == "" {
		t.Skip("BENCH_FABRIC_JSON not set")
	}
	iters := artifactEnvInt(t, "BENCH_ITERS", 200000)
	multi := artifactEnvInt(t, "BENCH_PLANES", 2)
	if multi < 2 {
		multi = 2
	}
	run := func(planes, count int) (pktsPerSec, frameFill float64) {
		done := make(chan struct{})
		var delivered atomic.Int64
		target := int64(count)
		// VOQDepth 16, kept so the artifact stays comparable with its
		// checked-in history.
		f, err := New[int](Config{
			LogN:     8,
			Planes:   planes,
			VOQDepth: 16,
			Policy:   Block,
			Record:   true,
		}, func(Packet[int]) {
			if delivered.Add(1) == target {
				close(done)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		senders := runtime.GOMAXPROCS(0)
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(s)))
				n := f.N()
				for i := s; i < count; i += senders {
					if err := f.Send(Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		<-done
		elapsed := time.Since(start)
		frameFill = f.Stats().FrameFill
		f.Close()
		return float64(count) / elapsed.Seconds(), frameFill
	}

	// Warmup primes the goroutine pools and frame freelists of both
	// configurations before anything is timed.
	run(1, iters/10+1)
	run(multi, iters/10+1)

	onePlane, fillOne := run(1, iters)
	multiPlane, fillMulti := run(multi, iters)
	artifact := map[string]any{
		"log_n":                 8,
		"iters":                 iters,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"planes_multi":          multi,
		"pkts_per_sec_1plane":   onePlane,
		"pkts_per_sec_multi":    multiPlane,
		"frame_fill_1plane":     fillOne,
		"frame_fill_multi":      fillMulti,
		"plane_scaling_speedup": multiPlane / onePlane,
	}
	out, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, out)
}

// TestBenchMcastArtifact is the multicast slice of the bench
// trajectory: when BENCH_MCAST_JSON names a file it pushes a pinned,
// seeded fan-out workload (fan-out 1..4, uniform destinations over
// N=256) through the packet path — SendMulticast → per-flow VOQ →
// frame scheduler → copy-network plane — and writes packet throughput
// plus the fabric's measured fanout amplification. The workload is
// pregenerated from a fixed seed, so every run sends the identical
// multiset of copies and fanout_amplification is bit-for-bit
// reproducible: ci/bench_diff.sh holds it exact while ratcheting
// pkts_per_sec_mcast.
func TestBenchMcastArtifact(t *testing.T) {
	path := os.Getenv("BENCH_MCAST_JSON")
	if path == "" {
		t.Skip("BENCH_MCAST_JSON not set")
	}
	iters := artifactEnvInt(t, "BENCH_ITERS", 200000)
	planes := artifactEnvInt(t, "BENCH_PLANES", 2)

	const n = 256 // LogN 8, matching the unicast artifact
	type job struct {
		src  int
		dsts []int
	}
	// gen pregenerates the whole workload so the send loop measures the
	// fabric, not the rng, and the copy count is known up front.
	gen := func(count int) ([]job, int64) {
		rng := rand.New(rand.NewSource(42))
		jobs := make([]job, count)
		copies := int64(0)
		var seen [n]bool
		for i := range jobs {
			k := 1 + rng.Intn(4)
			dsts := make([]int, 0, k)
			for len(dsts) < k {
				if d := rng.Intn(n); !seen[d] {
					seen[d] = true
					dsts = append(dsts, d)
				}
			}
			for _, d := range dsts {
				seen[d] = false
			}
			jobs[i] = job{src: rng.Intn(n), dsts: dsts}
			copies += int64(len(dsts))
		}
		return jobs, copies
	}

	run := func(count int) (pktsPerSec, amp float64) {
		jobs, copies := gen(count)
		done := make(chan struct{})
		var delivered atomic.Int64
		f, err := New[int](Config{
			LogN:     8,
			Planes:   planes,
			VOQDepth: 16,
			Policy:   Block,
			Record:   true,
		}, func(Packet[int]) {
			if delivered.Add(1) == copies {
				close(done)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		senders := runtime.GOMAXPROCS(0)
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := s; i < count; i += senders {
					err := f.SendMulticast(MulticastPacket[int]{
						Src: jobs[i].src, Dsts: jobs[i].dsts, Payload: jobs[i].src,
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		<-done
		elapsed := time.Since(start)
		amp = f.Stats().Mcast.FanoutAmplification
		f.Close()
		return float64(count) / elapsed.Seconds(), amp
	}

	run(iters/10 + 1)
	pps, amp := run(iters)
	artifact := map[string]any{
		"log_n":                8,
		"iters":                iters,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"planes":               planes,
		"pkts_per_sec_mcast":   pps,
		"copies_per_sec":       pps * amp,
		"fanout_amplification": amp,
	}
	out, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, out)
}
