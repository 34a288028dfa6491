package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// newRecordingFrameServer builds an engine over B(logN) with a flight
// recorder and one FrameServer on it.
func newRecordingFrameServer(t *testing.T, logN int) (*core.Network, *netsim.Recorder, *Engine[int], *FrameServer[int]) {
	t.Helper()
	net := core.New(logN)
	rec := netsim.NewRecorder(net, 1)
	e, err := New[int](Config{LogN: logN, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return net, rec, e, e.NewFrameServer()
}

// TestFrameServerPaths serves frames with random real packets, one of
// them a repeat the last-destination memo serves, and checks every
// switch's traversal count against the reference evaluator: the real
// packets' crossings of it in ExternalRoute's tag trace under the
// setting the server computed, unpacked.
func TestFrameServerPaths(t *testing.T) {
	const logN = 5
	net, rec, e, fs := newRecordingFrameServer(t, logN)
	n := net.N()
	want := make([][]int64, net.Stages())
	for s := range want {
		want[s] = make([]int64, net.SwitchesPerStage())
	}
	rng := rand.New(rand.NewSource(27))
	var dest perm.Perm
	const frames = 8
	for f := 0; f < frames; f++ {
		if f != frames/2 {
			dest = perm.Random(n, rng)
		}
		real := rng.Perm(n)[:1+rng.Intn(n)]
		if err := fs.Serve(dest, real); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		st := net.NewStates()
		st.Unpack(fs.words)
		trace := net.ExternalRoute(dest, st).TagTrace
		for _, src := range real {
			for s := range want {
				want[s][slices.Index(trace[s], dest[src])>>1]++
			}
		}
	}
	for s := range want {
		if got := rec.TraversedRow(s); !slices.Equal(got, want[s]) {
			t.Fatalf("stage %d: traversals %v, want the real packets' paths %v", s, got, want[s])
		}
	}
	if got := rec.Snapshot().FullVectors; got != 0 {
		t.Fatalf("frames recorded %d full vectors, want 0", got)
	}
	if got := e.Stats().Frames; got != frames {
		t.Fatalf("frames served = %d, want %d", got, frames)
	}
}

// TestFrameServerRejectsFlippedSetting flips one switch on a real
// packet's path in the packed setting a served frame left behind, then
// serves the same frame again: the last-destination memo reuses the
// damaged setting, and the walk must reject it, count the error and
// record nothing.
func TestFrameServerRejectsFlippedSetting(t *testing.T) {
	const logN = 4
	net, rec, e, fs := newRecordingFrameServer(t, logN)
	dest := perm.Random(net.N(), rand.New(rand.NewSource(28)))
	real := []int{3, 9, 12}
	if err := fs.Serve(dest, real); err != nil {
		t.Fatal(err)
	}
	before, stats := rec.Snapshot(), e.Stats()
	// Stage 0 packs first: flip the switch packet 9 enters on.
	sw := real[1] >> 1
	fs.words[sw>>6] ^= 1 << (sw & 63)
	if err := fs.Serve(dest, real); err == nil {
		t.Fatal("a frame served with a flipped switch on a packet's path was accepted")
	}
	after := e.Stats()
	if after.Errors != stats.Errors+1 || after.Frames != stats.Frames {
		t.Fatalf("errors %d -> %d, frames %d -> %d: want one error and no frame",
			stats.Errors, after.Errors, stats.Frames, after.Frames)
	}
	if !reflect.DeepEqual(rec.Snapshot(), before) {
		t.Fatal("a rejected frame changed the flight recorder")
	}
}
