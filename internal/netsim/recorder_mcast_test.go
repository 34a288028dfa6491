package netsim

import (
	"testing"

	"repro/internal/core"
)

// RecordMcastFlips must count a flip whenever either state bit changes
// and a broadcast transition whenever a switch enters or leaves a
// broadcast state; interleaved binary vectors must clear the broadcast
// plane so the counts stay exact.
func TestRecordMcastFlips(t *testing.T) {
	r := NewRecorderGeom(2, 3)
	words := r.MaskWords()
	lo, hi := make([]uint64, words), make([]uint64, words)

	// Vector 1: switch (0,0) bcast-upper (lo=0, hi=1), (1,2) cross.
	st := core.McastStates{
		{core.McBcastUpper, core.McStraight, core.McStraight},
		{core.McStraight, core.McStraight, core.McCross},
	}
	st.Pack(lo, hi)
	r.RecordMcastFlips(lo, hi)
	if got := r.StageTotals(0); got.Flips != 1 || got.Bcast != 1 {
		t.Fatalf("stage 0 after vector 1: %+v", got)
	}
	if got := r.StageTotals(1); got.Flips != 1 || got.Bcast != 0 {
		t.Fatalf("stage 1 after vector 1: %+v", got)
	}

	// Same vector again: no change, no counts.
	r.RecordMcastFlips(lo, hi)
	if got := r.StageTotals(0); got.Flips != 1 || got.Bcast != 1 {
		t.Fatalf("stage 0 after repeat: %+v", got)
	}

	// (0,0) bcast-upper -> bcast-lower: both bits would be... lo flips
	// (2 -> 3), hi unchanged: a flip but not a broadcast transition.
	st[0][0] = core.McBcastLower
	st.Pack(lo, hi)
	r.RecordMcastFlips(lo, hi)
	if got := r.StageTotals(0); got.Flips != 2 || got.Bcast != 1 {
		t.Fatalf("stage 0 after upper->lower: %+v", got)
	}

	// A binary vector (all straight) leaves the broadcast state: the
	// flip and the broadcast transition must both be counted.
	bin := core.States{{false, false, false}, {false, false, false}}
	mask := pack(bin)
	r.RecordFlips(mask)
	if got := r.StageTotals(0); got.Flips != 3 || got.Bcast != 2 {
		t.Fatalf("stage 0 after binary vector: %+v", got)
	}
	if got := r.StageTotals(1); got.Flips != 2 || got.Bcast != 0 {
		t.Fatalf("stage 1 after binary vector: %+v", got)
	}

	snap := r.Snapshot()
	if snap.Counts[0].Bcast[0] != 2 {
		t.Fatalf("snapshot bcast row: %v", snap.Counts[0].Bcast)
	}
}

// NewRecorderGeom must accept the ladder geometry (log N stages) and
// stay consistent with the *core.Network constructor for B(n).
func TestNewRecorderGeom(t *testing.T) {
	net := core.New(3)
	a := NewRecorder(net, 1)
	b := NewRecorderGeom(net.Stages(), net.SwitchesPerStage())
	if a.Stages() != b.Stages() || a.SwitchesPerStage() != b.SwitchesPerStage() {
		t.Fatalf("geometry mismatch: (%d,%d) vs (%d,%d)",
			a.Stages(), a.SwitchesPerStage(), b.Stages(), b.SwitchesPerStage())
	}
	lad := NewRecorderGeom(3, 4)
	if lad.Stages() != 3 || lad.SwitchesPerStage() != 4 || lad.MaskWords() != 3 {
		t.Fatalf("ladder recorder geometry: stages=%d switches=%d words=%d",
			lad.Stages(), lad.SwitchesPerStage(), lad.MaskWords())
	}
}
