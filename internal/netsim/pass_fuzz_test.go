package netsim_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FuzzFaultyPass holds core's synchronous pass to the goroutine engine
// on one fuzzed vector: a random permutation at N=2..64, up to two
// in-range stuck switches (one switch listed twice when twice is set),
// the omega bit, and a random external setting. RouteWithFaults and
// FaultRouter.Realized must realize what Run realizes with the same
// faults and count the same fault hits switch by switch (RouteWithFaults
// also sets the same states); OmegaRoute (SelfRoute with the bit clear)
// and ExternalRoute must realize Run's permutation and set its states
// under the same override.
func FuzzFaultyPass(f *testing.F) {
	f.Add(uint8(2), int64(1), uint8(2), true, true)
	f.Add(uint8(0), int64(7), uint8(0), false, false)
	f.Add(uint8(5), int64(42), uint8(1), false, true)
	f.Add(uint8(3), int64(3), uint8(2), false, false)
	nets := make([]*core.Network, 6)
	for n := range nets {
		nets[n] = core.New(n + 1)
	}
	f.Fuzz(func(t *testing.T, logN uint8, seed int64, nFaults uint8, twice, omega bool) {
		net := nets[int(logN)%len(nets)]
		rng := rand.New(rand.NewSource(seed))
		d := perm.Random(net.N(), rng)
		faults := make([]core.Fault, nFaults%3)
		for k := range faults {
			faults[k] = core.Fault{
				Stage:        rng.Intn(net.Stages()),
				Switch:       rng.Intn(net.SwitchesPerStage()),
				StuckCrossed: rng.Intn(2) == 1,
			}
		}
		if twice && len(faults) == 2 {
			faults[1].Stage, faults[1].Switch = faults[0].Stage, faults[0].Switch
		}
		ext := net.NewStates()
		for s := range ext {
			for i := range ext[s] {
				ext[s][i] = rng.Intn(2) == 1
			}
		}

		hw := netsim.NewWithFaults(net, faults)
		hwRec := netsim.NewRecorder(net, 1)
		hw.SetRecorder(hwRec)
		want, wantStates := hw.RouteOne(d)

		refRec := netsim.NewRecorder(net, 1)
		ref := net.RouteWithFaults(d, faults, refRec)
		samePass(t, "RouteWithFaults", ref, want, wantStates)
		sameHits(t, "RouteWithFaults", refRec, hwRec)

		predRec := netsim.NewRecorder(net, 1)
		if got := net.NewFaultRouter().Realized(d, faults, predRec, nil); !got.Equal(want.Realized) {
			t.Fatalf("faults %+v, d %v: FaultRouter.Realized %v, Run %v", faults, d, got, want.Realized)
		}
		sameHits(t, "FaultRouter.Realized", predRec, hwRec)

		eng := netsim.New(net)
		eng.SetOmega(omega)
		res, states := eng.RouteOne(d)
		if omega {
			samePass(t, "OmegaRoute", net.OmegaRoute(d), res, states)
		} else {
			samePass(t, "SelfRoute", net.SelfRoute(d), res, states)
		}
		eng.SetExternal(ext)
		res, states = eng.RouteOne(d)
		samePass(t, "ExternalRoute", net.ExternalRoute(d, ext), res, states)
	})
}

// samePass fails unless core's pass realized and set what Run did.
func samePass(t *testing.T, name string, got *core.Result, want netsim.VectorResult, wantStates core.States) {
	t.Helper()
	if !got.Realized.Equal(want.Realized) {
		t.Fatalf("%s realized %v, Run %v", name, got.Realized, want.Realized)
	}
	for s := range wantStates {
		if !slices.Equal(got.States[s], wantStates[s]) {
			t.Fatalf("%s set stage %d to %v, Run to %v", name, s, got.States[s], wantStates[s])
		}
	}
}

// sameHits fails unless got counted want's fault hits at every switch.
func sameHits(t *testing.T, name string, got, want *netsim.Recorder) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	for s := range w.Counts {
		if !slices.Equal(g.Counts[s].FaultHits, w.Counts[s].FaultHits) {
			t.Fatalf("%s counted stage %d fault hits %v, Run %v", name, s, g.Counts[s].FaultHits, w.Counts[s].FaultHits)
		}
	}
}
