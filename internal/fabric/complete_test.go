package fabric

import (
	"math/rand"
	"testing"
)

// TestCompleteExtendsPartial is the property test for the partial→full
// completion helper: for random partial matchings of many sizes and
// densities, the result must be a valid permutation that agrees with
// every matched input.
func TestCompleteExtendsPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 << (1 + rng.Intn(6)) // N in {2..64}
		matched := rng.Intn(n + 1)
		// Build a random partial matching with `matched` pairs.
		outs := rng.Perm(n)
		ins := rng.Perm(n)
		partial := make([]int, n)
		for i := range partial {
			partial[i] = Idle
		}
		for k := 0; k < matched; k++ {
			partial[ins[k]] = outs[k]
		}
		full, err := Complete(partial)
		if err != nil {
			t.Fatalf("n=%d matched=%d: %v", n, matched, err)
		}
		if err := full.Validate(); err != nil {
			t.Fatalf("n=%d matched=%d: completion is not a permutation: %v", n, matched, err)
		}
		for i, out := range partial {
			if out != Idle && full[i] != out {
				t.Fatalf("n=%d: completion moved matched input %d: %d -> %d", n, i, out, full[i])
			}
		}
	}
}

// TestCompleteEdgeCases pins the empty, full, and single-slot shapes.
func TestCompleteEdgeCases(t *testing.T) {
	if full, err := Complete([]int{Idle, Idle, Idle, Idle}); err != nil || !full.Valid() {
		t.Fatalf("all-idle must complete to a permutation, got %v, %v", full, err)
	}
	if full, err := Complete([]int{3, 2, 1, 0}); err != nil || !full.Equal([]int{3, 2, 1, 0}) {
		t.Fatalf("a full matching must come back unchanged, got %v, %v", full, err)
	}
	if full, err := Complete([]int{1, Idle}); err != nil || !full.Equal([]int{1, 0}) {
		t.Fatalf("single idle input must take the single free output, got %v, %v", full, err)
	}
}

// TestCompleteRejectsNonMatchings covers the error paths.
func TestCompleteRejectsNonMatchings(t *testing.T) {
	if _, err := Complete([]int{0, 0, Idle, Idle}); err == nil {
		t.Fatal("duplicate output must be rejected")
	}
	if _, err := Complete([]int{4, Idle, Idle, Idle}); err == nil {
		t.Fatal("out-of-range output must be rejected")
	}
	if _, err := Complete([]int{-2, Idle, Idle, Idle}); err == nil {
		t.Fatal("negative non-Idle output must be rejected")
	}
}

// TestBuildFrameIsCompleteOfPairs pins the property a journaled frame
// relies on: over random VOQ states, the permutation buildFrame hands
// the plane is exactly Complete of the frame's (src, dst) pairs, so a
// frame recorded as its pairs alone replays the permutation, and hence
// the gate states, its plane served.
func TestBuildFrameIsCompleteOfPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	frames := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 << (1 + rng.Intn(6)) // N in {2..64}
		v := newVOQShard[int](n, 8, nil)
		for i, load := 0, 1+rng.Intn(4*n); i < load; i++ {
			// A full queue tail-drops the packet, which only thins the
			// state under test.
			_ = v.enqueue(Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: i}, DropNew)
		}
		for fr := drainOne(t, v); fr != nil; fr = drainOne(t, v) {
			partial := make([]int, n)
			for i := range partial {
				partial[i] = Idle
			}
			for k, src := range fr.srcs {
				partial[src] = fr.dsts[k]
			}
			want, err := Complete(partial)
			if err != nil {
				t.Fatalf("n=%d: frame pairs are not a matching: %v", n, err)
			}
			if !fr.dest.Equal(want) {
				t.Fatalf("n=%d: buildFrame served %v, Complete of its %d pairs is %v", n, fr.dest, len(fr.srcs), want)
			}
			frames++
		}
	}
	if frames < 200 {
		t.Fatalf("only %d frames built", frames)
	}
}
