package netsim

import (
	"fmt"
	"math/rand"
	"sync"
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
	ref := net.RouteWithFaults(id, []core.Fault{fault}, nil)
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
	if nilRec.Stages() != 0 || nilRec.SwitchesPerStage() != 0 {
		t.Fatal("nil recorder accessors must be inert")
	}
	nilRec.Traverse(0, 0)
	nilRec.RecordVector(nil)
	if s := nilRec.Snapshot(); s.Counts != nil {
		t.Fatal("nil recorder snapshot must be empty")
	}
}

// refRecorder is the plain model the bit-sliced recorder must match:
// one int64 per (switch, kind), a full-vector count, and the previous
// four-state setting as two bit rows.
type refRecorder struct {
	c      [][][recKinds]int64
	full   int64
	lo, hi [][]bool
}

func newRefRecorder(stages, switches int) *refRecorder {
	m := &refRecorder{
		c:  make([][][recKinds]int64, stages),
		lo: make([][]bool, stages),
		hi: make([][]bool, stages),
	}
	for s := range m.c {
		m.c[s] = make([][recKinds]int64, switches)
		m.lo[s] = make([]bool, switches)
		m.hi[s] = make([]bool, switches)
	}
	return m
}

// apply records one four-state setting: a switch flips when either
// state bit changed and counts a broadcast transition when the high
// bit changed. A binary setting is the same with every high bit clear.
func (m *refRecorder) apply(lo, hi [][]bool) {
	for s := range lo {
		for i := range lo[s] {
			if lo[s][i] != m.lo[s][i] || hi[s][i] != m.hi[s][i] {
				m.c[s][i][kindFlips]++
			}
			if hi[s][i] != m.hi[s][i] {
				m.c[s][i][kindBcast]++
			}
			m.lo[s][i], m.hi[s][i] = lo[s][i], hi[s][i]
		}
	}
}

// check compares every counter of r with the model through Snapshot,
// StageTotals and TraversedRow.
func (m *refRecorder) check(t *testing.T, r *Recorder, when string) {
	t.Helper()
	snap := r.Snapshot()
	if snap.FullVectors != m.full {
		t.Fatalf("%s: full vectors = %d, want %d", when, snap.FullVectors, m.full)
	}
	for s := range m.c {
		var want StageTotals
		row := r.TraversedRow(s)
		for i, c := range m.c[s] {
			trav := c[kindTraversed] + 2*m.full
			got := [recKinds]int64{
				kindTraversed: snap.Counts[s].Traversed[i],
				kindFlips:     snap.Counts[s].Flips[i],
				kindForced:    snap.Counts[s].Forced[i],
				kindFaultHits: snap.Counts[s].FaultHits[i],
				kindBcast:     snap.Counts[s].Bcast[i],
			}
			c[kindTraversed] = trav
			if got != c {
				t.Fatalf("%s: switch (%d,%d) = %v, want %v (traversed, flips, forced, fault hits, bcast)", when, s, i, got, c)
			}
			if row[i] != trav {
				t.Fatalf("%s: TraversedRow(%d)[%d] = %d, want %d", when, s, i, row[i], trav)
			}
			want.Traversed += trav
			want.Flips += c[kindFlips]
			want.Forced += c[kindForced]
			want.FaultHits += c[kindFaultHits]
			want.Bcast += c[kindBcast]
		}
		if got := r.StageTotals(s); got != want {
			t.Fatalf("%s: StageTotals(%d) = %+v, want %+v", when, s, got, want)
		}
	}
}

// TestRecorderMatchesReference drives the bit-sliced recorder and the
// plain model with one seeded single-writer sequence of every record
// kind — binary vectors and flips, four-state flips with broadcast
// transitions, frame traversals, and single-switch traversals, flips,
// forced settings, fault hits and broadcast transitions — and checks
// every counter at intervals. The geometry has a partial second word,
// and the sequence is long enough that flips and frame traversals
// cross at least three spill boundaries.
func TestRecorderMatchesReference(t *testing.T) {
	const stages, switches = 3, 70
	rng := rand.New(rand.NewSource(16))
	r := NewRecorderGeom(stages, switches)
	m := newRefRecorder(stages, switches)
	paths := r.NewPaths()
	lo, hi := make([]uint64, r.MaskWords()), make([]uint64, r.MaskWords())
	frameTrav := make([][]int64, stages)
	for s := range frameTrav {
		frameTrav[s] = make([]int64, switches)
	}

	randomBinary := func() (core.States, [][]bool) {
		st := make(core.States, stages)
		none := make([][]bool, stages)
		for s := range st {
			st[s] = make([]bool, switches)
			none[s] = make([]bool, switches)
			for i := range st[s] {
				st[s][i] = rng.Intn(2) == 1
			}
		}
		return st, none
	}
	for op := 1; op <= 4000; op++ {
		switch k := rng.Intn(20); {
		case k < 5: // full vector
			st, none := randomBinary()
			r.RecordVector(pack(st))
			m.full++
			m.apply(st, none)
		case k < 8: // binary flips only
			st, none := randomBinary()
			r.RecordFlips(pack(st))
			m.apply(st, none)
		case k < 11: // four-state flips
			st := make(core.McastStates, stages)
			stLo, stHi := make([][]bool, stages), make([][]bool, stages)
			for s := range st {
				st[s] = make([]core.McastState, switches)
				stLo[s], stHi[s] = make([]bool, switches), make([]bool, switches)
				for i := range st[s] {
					st[s][i] = core.McastState(rng.Intn(4))
					stLo[s][i], stHi[s][i] = st[s][i]&1 != 0, st[s][i].Broadcast()
				}
			}
			st.Pack(lo, hi)
			r.RecordMcastFlips(lo, hi)
			m.apply(stLo, stHi)
		case k < 18: // frame: flips plus up to two marks per switch
			st, none := randomBinary()
			paths.Reset()
			for s := 0; s < stages; s++ {
				for i := 0; i < switches; i++ {
					marks := []int{0, 1, 2, 2}[rng.Intn(4)]
					for j := 0; j < marks; j++ {
						paths.Mark(s, i)
					}
					m.c[s][i][kindTraversed] += int64(marks)
					frameTrav[s][i] += int64(marks)
				}
			}
			r.RecordFrame(pack(st), paths)
			m.apply(st, none)
		default: // single-switch calls (broadcast flips come only from RecordMcastFlips)
			s, i := rng.Intn(stages), rng.Intn(switches)
			calls := []func(int, int){r.Traverse, r.Flip, r.Forced, r.FaultHit}
			kind := rng.Intn(len(calls))
			calls[kind](s, i)
			m.c[s][i][kind]++
		}
		if op%500 == 0 {
			m.check(t, r, fmt.Sprintf("after %d ops", op))
		}
	}

	// The premise: planes wrapped at least three times somewhere.
	var maxFlips, maxFrame int64
	for s := range m.c {
		for i := range m.c[s] {
			maxFlips = max(maxFlips, m.c[s][i][kindFlips])
			maxFrame = max(maxFrame, frameTrav[s][i])
		}
	}
	if maxFlips < 3<<planeBits || maxFrame < 3<<planeBits {
		t.Fatalf("premise: max flips %d, max frame traversals %d; want both >= %d", maxFlips, maxFrame, 3<<planeBits)
	}
}

// TestRecorderFlipParityConcurrent records random settings from four
// writers at once. Whatever order the recorder applies them in, a
// switch's flip count is the number of state changes along that order,
// so its parity must equal the switch's last recorded state (from the
// all-straight power-on state). One more setting recorded alone at
// quiescence is every switch's last state.
func TestRecorderFlipParityConcurrent(t *testing.T) {
	net := core.New(6) // N=64: 11 stages of 32 switches
	r := NewRecorder(net, 4)
	random := func(rng *rand.Rand) core.States {
		st := net.NewStates()
		for s := range st {
			for i := range st[s] {
				st[s][i] = rng.Intn(2) == 1
			}
		}
		return st
	}
	const writers, vectors = 4, 2000
	// Pack every setting first, so the writers' records overlap.
	masks := make([][][]uint64, writers)
	for w := range masks {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		masks[w] = make([][]uint64, vectors)
		for k := range masks[w] {
			masks[w][k] = pack(random(rng))
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range masks {
		wg.Add(1)
		go func(mine [][]uint64) {
			defer wg.Done()
			<-start
			for _, mask := range mine {
				r.RecordFlips(mask)
			}
		}(masks[w])
	}
	close(start)
	wg.Wait()
	last := random(rand.New(rand.NewSource(99)))
	r.RecordFlips(pack(last))

	snap := r.Snapshot()
	wrong, total := 0, 0
	for s := range last {
		for i, crossed := range last[s] {
			total++
			if (snap.Counts[s].Flips[i]%2 == 1) != crossed {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d switches have a flip count whose parity disagrees with their last recorded state", wrong, total)
	}
}

// TestRecorderReadersMonotonic races readers of StageTotals and
// Snapshot against writers of every path that touches the planes and
// the cells: no counter a reader sees may be lower than one it saw
// before, even while pending plane counts spill into their cells.
func TestRecorderReadersMonotonic(t *testing.T) {
	net := core.New(4) // N=16: 7 stages of 8 switches, spills every 256 counts
	r := NewRecorder(net, 3)
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			paths := r.NewPaths()
			st := net.NewStates()
			for k := 0; k < 3000; k++ {
				for s := range st {
					for i := range st[s] {
						st[s][i] = rng.Intn(2) == 1
					}
				}
				switch w {
				case 0:
					r.RecordVector(pack(st))
				case 1:
					paths.Reset()
					for s := range st {
						for i := range st[s] {
							for j := rng.Intn(3); j > 0; j-- {
								paths.Mark(s, i)
							}
						}
					}
					r.RecordFrame(pack(st), paths)
				default:
					s, i := rng.Intn(len(st)), rng.Intn(len(st[0]))
					r.Traverse(s, i)
					r.Flip(s, i)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()

	totals := make([]StageTotals, r.Stages())
	prev := r.Snapshot()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for s := range totals {
			got := r.StageTotals(s)
			if got.Traversed < totals[s].Traversed || got.Flips < totals[s].Flips {
				t.Fatalf("stage %d totals went back: %+v after %+v", s, got, totals[s])
			}
			totals[s] = got
		}
		snap := r.Snapshot()
		for s, c := range snap.Counts {
			for i := range c.Traversed {
				if c.Traversed[i] < prev.Counts[s].Traversed[i] || c.Flips[i] < prev.Counts[s].Flips[i] {
					t.Fatalf("switch (%d,%d) went back: traversed %d -> %d, flips %d -> %d", s, i,
						prev.Counts[s].Traversed[i], c.Traversed[i], prev.Counts[s].Flips[i], c.Flips[i])
				}
			}
		}
		prev = snap
	}
}
