package fabric

import (
	"repro/internal/journal"
	"repro/internal/netsim"
)

// JournalCheckpoint builds the fabric's slice of a journal checkpoint
// record: aggregate packet books, per-plane serving counters, and a
// digest of each plane's gate-level recorder state. It is the function
// to install (possibly wrapped to add engine counters) via
// journal.Journal.SetCheckpointSource. Counters are read atomically but
// independently, exactly like Stats: a checkpoint taken mid-flight may
// be a few packets out of phase between fields, which is why replay
// audits the journal-assigned per-kind record counts and treats these
// as chain-protected context.
func (f *Fabric[T]) JournalCheckpoint() journal.Checkpoint {
	cp := journal.Checkpoint{
		Accepted:  uint64(f.met.Accepted.Value()),
		Delivered: uint64(f.met.Delivered.Value()),
		Lost:      uint64(f.met.Lost.Value()),
		Frames:    uint64(f.met.Frames.Value()),
	}
	for _, p := range f.planes {
		cp.Planes = append(cp.Planes, journal.PlaneCheckpoint{
			Frames:         uint64(p.counts.Frames.Value()),
			Packets:        uint64(p.counts.Packets.Value()),
			Rounds:         uint64(p.counts.Rounds.Value()),
			Failovers:      uint64(p.counts.Failovers.Value()),
			RecorderDigest: recorderDigest(p.eng.Recorder()),
		})
	}
	return cp
}

// recorderDigest folds a flight recorder's per-stage totals into one
// FNV-1a word (0 when accounting is off) — a compact, chain-protected
// fingerprint of the plane's cumulative gate activity.
func recorderDigest(rec *netsim.Recorder) uint64 {
	if rec == nil {
		return 0
	}
	h := journal.NewHash64()
	for s := 0; s < rec.Stages(); s++ {
		t := rec.StageTotals(s)
		h.Int(t.Traversed)
		h.Int(t.Flips)
		h.Int(t.Forced)
		h.Int(t.FaultHits)
		h.Int(t.Bcast)
	}
	return h.Sum()
}
