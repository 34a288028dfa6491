package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// expectedTraversals derives per-switch tag counts from the synchronous
// evaluator's gate-level trace: switch (s, i) carries exactly the tags
// appearing on lines 2i and 2i+1 at stage s's input.
func expectedTraversals(res *core.Result, stages, switches int) [][]int64 {
	want := make([][]int64, stages)
	for s := 0; s < stages; s++ {
		want[s] = make([]int64, switches)
		for y := range res.TagTrace[s] {
			want[s][y/2]++
		}
	}
	return want
}

// addStates folds one routed vector's switch setting into a running
// flip expectation: a switch flips whenever its state differs from the
// previous vector's (starting from the all-straight power-on setting).
func addFlips(flips [][]int64, prev *core.States, st core.States) {
	for s := range st {
		for i, crossed := range st[s] {
			if crossed != (*prev)[s][i] {
				flips[s][i]++
			}
		}
	}
	*prev = st.Clone()
}

// TestRecorderExactCounts routes known permutations at N=8 through the
// concurrent engine with the flight recorder on and checks every
// per-switch counter — traversals, flips — against counts derived
// from the synchronous evaluator's gate-level trace.
func TestRecorderExactCounts(t *testing.T) {
	const n = 3
	net := core.New(n)
	stages, switches := net.Stages(), net.SwitchesPerStage()

	vectors := []perm.Perm{
		perm.BitReversal(n),
		perm.Identity(1 << n),
		perm.BitReversal(n), // repeat: flips only where identity differed
	}
	wantTrav := make([][]int64, stages)
	wantFlips := make([][]int64, stages)
	for s := range wantTrav {
		wantTrav[s] = make([]int64, switches)
		wantFlips[s] = make([]int64, switches)
	}
	prev := net.NewStates()
	for _, d := range vectors {
		res := net.SelfRoute(d)
		if !res.OK() {
			t.Fatalf("premise: %v must self-route", d)
		}
		for s, row := range expectedTraversals(res, stages, switches) {
			for i, c := range row {
				wantTrav[s][i] += c
			}
		}
		addFlips(wantFlips, &prev, res.States)
	}

	eng := New(net)
	rec := NewRecorder(net, 4)
	eng.SetRecorder(rec)
	results, _ := eng.Run(vectors)
	for k, res := range results {
		if !res.OK() {
			t.Fatalf("vector %d misrouted: %v", k, res.Misrouted)
		}
	}

	snap := rec.Snapshot()
	if snap.Stages != stages || snap.SwitchesPerStage != switches {
		t.Fatalf("snapshot geometry %dx%d, want %dx%d", snap.Stages, snap.SwitchesPerStage, stages, switches)
	}
	totalTrav := int64(0)
	for s := 0; s < stages; s++ {
		for i := 0; i < switches; i++ {
			if got := snap.Counts[s].Traversed[i]; got != wantTrav[s][i] {
				t.Errorf("traversed[%d][%d] = %d, want %d (gate trace)", s, i, got, wantTrav[s][i])
			}
			if got := snap.Counts[s].Flips[i]; got != wantFlips[s][i] {
				t.Errorf("flips[%d][%d] = %d, want %d", s, i, got, wantFlips[s][i])
			}
			if snap.Counts[s].Forced[i] != 0 || snap.Counts[s].FaultHits[i] != 0 {
				t.Errorf("switch (%d,%d): unexpected forced/fault counts %+v", s, i, snap.Counts[s])
			}
			totalTrav += snap.Counts[s].Traversed[i]
		}
	}
	// Every routed tag traverses one switch per stage: total traversals
	// must equal packets routed times the transmission gate delay.
	if want := int64(len(vectors)) * int64(net.N()) * int64(net.GateDelay()); totalTrav != want {
		t.Fatalf("total traversals %d, want packets*stages = %d", totalTrav, want)
	}
	for s := 0; s < stages; s++ {
		tot := rec.StageTotals(s)
		if tot.Traversed != int64(len(vectors))*int64(net.N()) {
			t.Fatalf("stage %d traversed total %d, want %d", s, tot.Traversed, len(vectors)*net.N())
		}
	}
}

// TestRecorderOmegaForced asserts the omega bit: stages 0..n-2 are
// forced straight and every forced setting is counted, while the
// realized permutation matches the synchronous omega evaluator —
// including the forced stages' traversal counts.
func TestRecorderOmegaForced(t *testing.T) {
	const n = 3
	net := core.New(n)
	d := perm.CyclicShift(n, 3)
	ref := net.OmegaRoute(d)
	if !ref.OK() {
		t.Fatalf("premise: %v must route with the omega bit", d)
	}

	eng := New(net)
	eng.SetOmega(true)
	rec := NewRecorder(net, 2)
	eng.SetRecorder(rec)
	res, states := eng.RouteOne(d)
	if !res.OK() {
		t.Fatalf("omega route misrouted: %v", res.Misrouted)
	}
	if !res.Realized.Equal(ref.Realized) {
		t.Fatalf("realized %v, want %v", res.Realized, ref.Realized)
	}
	for s := range states {
		for i := range states[s] {
			if states[s][i] != ref.States[s][i] {
				t.Fatalf("state (%d,%d) = %v, want %v", s, i, states[s][i], ref.States[s][i])
			}
		}
	}

	snap := rec.Snapshot()
	for s := 0; s < net.Stages(); s++ {
		for i := 0; i < net.SwitchesPerStage(); i++ {
			wantForced := int64(0)
			if s <= n-2 {
				wantForced = 1
			}
			if got := snap.Counts[s].Forced[i]; got != wantForced {
				t.Errorf("forced[%d][%d] = %d, want %d", s, i, got, wantForced)
			}
			// Forced stages still carry their two tags per vector.
			if got := snap.Counts[s].Traversed[i]; got != 2 {
				t.Errorf("traversed[%d][%d] = %d, want 2", s, i, got)
			}
		}
	}
}

// TestRecorderFaultHits pins a stuck switch and checks the recorder
// localizes the damage: the fault-hit counter increments exactly at the
// stuck coordinate, and only for vectors demanding the opposite state.
func TestRecorderFaultHits(t *testing.T) {
	const n = 3
	net := core.New(n)
	fault := core.Fault{Stage: 0, Switch: 0, StuckCrossed: true}

	eng := NewWithFaults(net, []core.Fault{fault})
	rec := NewRecorder(net, 1)
	eng.SetRecorder(rec)

	// Identity wants switch (0,0) straight: the stuck-crossed state is a
	// hit (whether or not downstream self-routing absorbs the swap).
	id := perm.Identity(1 << n)
	ref := net.RouteWithFaults(id, []core.Fault{fault})
	res, _ := eng.RouteOne(id)
	if !res.Realized.Equal(ref.Realized) {
		t.Fatalf("faulted realized %v, want %v (core.RouteWithFaults)", res.Realized, ref.Realized)
	}
	snap := rec.Snapshot()
	for s := 0; s < net.Stages(); s++ {
		for i := 0; i < net.SwitchesPerStage(); i++ {
			want := int64(0)
			if s == fault.Stage && i == fault.Switch {
				want = 1
			}
			if got := snap.Counts[s].FaultHits[i]; got != want {
				t.Errorf("faultHits[%d][%d] = %d, want %d", s, i, got, want)
			}
		}
	}

	// A second pass through the same recorder adds exactly one more hit.
	eng.RouteOne(id)
	if got := rec.StageTotals(fault.Stage).FaultHits; got != 2 {
		t.Fatalf("fault hits after two passes = %d, want 2", got)
	}
}

// TestRecorderNilInert checks a nil recorder stays silent: every
// accessor and record call is a no-op rather than a panic.
func TestRecorderNilInert(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Shard() != nil || nilRec.Stages() != 0 || nilRec.SwitchesPerStage() != 0 {
		t.Fatal("nil recorder accessors must be inert")
	}
	nilRec.Shard().Traverse(0, 0)
	nilRec.Shard().RecordVector(nil)
	if s := nilRec.Snapshot(); s.Counts != nil {
		t.Fatal("nil recorder snapshot must be empty")
	}
}
