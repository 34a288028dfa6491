package journal

import "repro/internal/obs"

// Metrics aggregates the journal's counters and the append-stage
// latency histogram, one series a field (see obs.Export), owned by the
// Journal.
type Metrics struct {
	appended      obs.Counter `metric:"benes_journal_appended_total" help:"Records appended to the hash chain."`
	dropped       obs.Counter `metric:"benes_journal_dropped_total" help:"Records lost to a full spill queue or a failed spill write."`
	bytes         obs.Counter `metric:"benes_journal_bytes_total" help:"Encoded record bytes appended, chain digests included."`
	spilled       obs.Counter `metric:"benes_journal_spilled_segments_total" help:"Evicted segments written to the spill directory."`
	chainVerifies obs.Counter `metric:"benes_journal_chain_verifies_total" help:"Chain-walk integrity verifications served."`
	replayDiverg  obs.Counter `metric:"benes_journal_replay_divergences_total" help:"Divergences reported by replay audits."`

	// Append times one record append: encode, hash, chain extension.
	Append obs.Histogram `metric:"benes_journal_append_seconds" help:"One record append: encode, hash, chain extension."`
}

// Appended returns the number of records appended.
func (m *Metrics) Appended() int64 { return m.appended.Value() }

// Dropped returns the number of records lost without being spilled.
func (m *Metrics) Dropped() int64 { return m.dropped.Value() }

// Bytes returns the encoded bytes appended.
func (m *Metrics) Bytes() int64 { return m.bytes.Value() }

// Spilled returns the number of segments written to disk.
func (m *Metrics) Spilled() int64 { return m.spilled.Value() }

// ReplayDivergences returns the divergences reported by replay audits.
func (m *Metrics) ReplayDivergences() int64 { return m.replayDiverg.Value() }

// AddReplayDivergences folds a replay audit's divergence count into the
// counter (the replay layer reports, the journal's metrics aggregate).
func (m *Metrics) AddReplayDivergences(n int64) { m.replayDiverg.Add(n) }

// Register exports the benes_journal_* series into reg.
func (m *Metrics) Register(reg *obs.Registry) { reg.Export(m, nil) }
