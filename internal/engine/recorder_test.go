package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// TestEngineRecorderFullVectors routes full permutation vectors through
// a recorder-enabled engine and checks the gate-level totals: every
// switch carries exactly two tags per vector, and flips match the state
// diffs between consecutively served plans.
func TestEngineRecorderFullVectors(t *testing.T) {
	const logN = 3
	net := core.New(logN)
	rec := netsim.NewRecorder(net, 2)
	eng, err := New[int](Config{LogN: logN, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Recorder() != rec {
		t.Fatal("Recorder() accessor must return the configured recorder")
	}

	data := benchPayload(1 << logN)
	vectors := []perm.Perm{
		perm.BitReversal(logN),
		perm.Identity(1 << logN),
		perm.BitReversal(logN), // cache hit: still a recorded pass
	}
	for _, d := range vectors {
		if resp := eng.Route(d, data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	stages, switches := net.Stages(), net.SwitchesPerStage()
	wantFlips := make([][]int64, stages)
	for s := range wantFlips {
		wantFlips[s] = make([]int64, switches)
	}
	prev := net.NewStates()
	for _, d := range vectors {
		res := net.SelfRoute(d)
		if !res.OK() {
			t.Fatalf("premise: %v must self-route", d)
		}
		for s := range res.States {
			for i, crossed := range res.States[s] {
				if crossed != prev[s][i] {
					wantFlips[s][i]++
				}
			}
		}
		prev = res.States.Clone()
	}

	snap := rec.Snapshot()
	if snap.FullVectors != int64(len(vectors)) {
		t.Fatalf("full vectors = %d, want %d", snap.FullVectors, len(vectors))
	}
	for s := 0; s < stages; s++ {
		for i := 0; i < switches; i++ {
			if got := snap.Counts[s].Traversed[i]; got != 2*int64(len(vectors)) {
				t.Errorf("traversed[%d][%d] = %d, want %d", s, i, got, 2*len(vectors))
			}
			if got := snap.Counts[s].Flips[i]; got != wantFlips[s][i] {
				t.Errorf("flips[%d][%d] = %d, want %d", s, i, got, wantFlips[s][i])
			}
		}
	}
}

// TestEngineWarmRouteAllocs is the allocation guard: the warm-cache
// serving path — cached plan, payload apply, recorded pass — must stay
// at 1 allocation per request, the routed output slice, with gate-level
// accounting enabled. The flight recorder's RecordVector is a locked word sweep
// that ripple-carries changed words into preallocated bit-planes; if
// it (or anything else on the warm path) starts allocating, this fails
// before a benchmark ever notices.
func TestEngineWarmRouteAllocs(t *testing.T) {
	const logN = 6
	rec := netsim.NewRecorder(core.New(logN), 2)
	eng, err := New[int](Config{LogN: logN, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := perm.BitReversal(logN)
	data := benchPayload(1 << logN)
	eng.Route(d, data) // prime the cache

	allocs := testing.AllocsPerRun(200, func() {
		if resp := eng.Route(d, data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm Route allocates %.1f objects/op with accounting enabled, budget is 1", allocs)
	}
}
