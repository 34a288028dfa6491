package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// TestFaultHitsCoexistWithMcastCounters pins the recorder interaction a
// fabric plane serving multicast traffic with injected damage depends
// on: the engine's serving path records four-state copy-ladder settings
// (flips plus bcast_flips) into the same per-switch counters a faulty
// pass records fault hits into. The columns must move independently —
// a binary faulty pass never touches the broadcast column, and
// multicast recording never disturbs the fault-hit column.
func TestFaultHitsCoexistWithMcastCounters(t *testing.T) {
	net := core.New(2)
	rec := NewRecorder(net, 2)

	// A four-state setting with one broadcast: flips and bcast_flips.
	st := core.McastStates{
		{core.McBcastUpper, core.McStraight},
		{core.McStraight, core.McCross},
		{core.McStraight, core.McStraight},
	}
	words := rec.MaskWords()
	lo, hi := make([]uint64, words), make([]uint64, words)
	st.Pack(lo, hi)
	rec.RecordMcastFlips(lo, hi)
	base0 := rec.StageTotals(0)
	if base0.Flips != 1 || base0.Bcast != 1 || base0.FaultHits != 0 {
		t.Fatalf("stage 0 after mcast vector: %+v", base0)
	}

	// Faulty pass: switch (0,0) stuck crossed, identity demands it
	// straight, so the pass registers a fault hit.
	// The pass still delivers correctly: the swapped pair is
	// bit-complementary, so the downstream self-setting switches read
	// the swapped tags and compensate — a hit without a misroute, which
	// is exactly why fault-hit accounting cannot be derived from
	// misroute detection.
	eng := NewWithFaults(net, []core.Fault{{Stage: 0, Switch: 0, StuckCrossed: true}})
	eng.SetRecorder(rec)
	res, _ := eng.RouteOne(perm.Identity(net.N()))
	if !res.OK() {
		t.Fatalf("self-routing must compensate the stage-0 swap, got misroutes %v", res.Misrouted)
	}
	after0 := rec.StageTotals(0)
	if after0.FaultHits != 1 {
		t.Fatalf("fault hits = %d, want 1 (%+v)", after0.FaultHits, after0)
	}
	if after0.Bcast != base0.Bcast {
		t.Fatalf("faulty pass disturbed the broadcast column: %+v -> %+v", base0, after0)
	}
	if want := base0.Traversed + int64(net.N()); after0.Traversed != want {
		t.Fatalf("faulty pass traversals = %d, want %d (one vector)", after0.Traversed, want)
	}

	// Another multicast setting change on the damaged switch: the flip
	// and broadcast columns move, the fault-hit column does not.
	st[0][0] = core.McCross
	st.Pack(lo, hi)
	rec.RecordMcastFlips(lo, hi)
	final0 := rec.StageTotals(0)
	if final0.Flips != after0.Flips+1 || final0.Bcast != base0.Bcast+1 {
		t.Fatalf("stage 0 after second mcast vector: %+v", final0)
	}
	if final0.FaultHits != 1 {
		t.Fatalf("mcast recording disturbed fault hits: %+v", final0)
	}
}
