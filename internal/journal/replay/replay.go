// Package replay deterministically re-executes a journaled traffic
// window against a fresh network and audits the outcomes against the
// recorded deliveries — the paper's setup-vs-transmission split made
// operational. Because tag-based self-routing makes every switch
// setting a pure function of the admitted permutation (Theorem 1 for
// F(n) members, the looping algorithm otherwise), a journal of served
// frames and rounds is sufficient to reproduce every gate state and
// delivery bit for bit: the journal itself serialized the frame order,
// so replay needs no scheduler, no queues, and no clock — only the
// recorded admissions in sequence.
//
// Replay re-derives each record's plan exactly the way the serving path
// did (SelfRoute for F(n) members, the looping setup otherwise;
// multicast mappings recompile through the copy-network compiler),
// routes it through a fresh gate-level network, and compares the
// realized deliveries' digest against the journal's. The first mismatch
// names the exact divergent sequence number. Checkpoint records add a
// second audit axis: their journal-assigned per-kind record counts must
// match the deltas replay observes between checkpoints.
package replay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/mcast"
	"repro/internal/perm"
)

// Config shapes the fresh network a window is replayed against. It
// must match the journaling fabric: same LogN, same plane count.
type Config struct {
	// LogN is n = log2(N) of the journaling network. Required.
	LogN int
	// Planes is the journaling fabric's plane count; plane-scoped
	// records with planes outside [0, Planes) are divergences. 0 means
	// plane identity is not checked (a standalone engine journal).
	Planes int
}

// Divergence is one audited mismatch between the journal and the
// re-execution.
type Divergence struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Report is the outcome of one replay audit.
type Report struct {
	From        uint64 `json:"from"`
	To          uint64 `json:"to"`
	Replayed    int    `json:"replayed"`
	Checkpoints int    `json:"checkpoints"`
	// ChainOK reports the pre-replay chain walk (set by Window; Run on
	// raw records leaves it true only if the walk was skipped upstream).
	ChainOK bool `json:"chain_ok"`
	// FirstBadSeq is the chain walk's first broken record, 0 when
	// intact.
	FirstBadSeq uint64 `json:"first_bad_seq,omitempty"`
	// Divergences lists every audited mismatch in sequence order.
	Divergences []Divergence `json:"divergences,omitempty"`
	// FirstDivergentSeq is Divergences[0].Seq, 0 when the replay was
	// clean.
	FirstDivergentSeq uint64 `json:"first_divergent_seq,omitempty"`
	// Head is the chain head digest of the verified window, hex.
	Head string `json:"head,omitempty"`
}

// Clean reports a fully verified window: intact chain, zero
// divergences.
func (r *Report) Clean() bool {
	return r.ChainOK && len(r.Divergences) == 0
}

// Window verifies the chain over [from, to] and replays the window,
// folding any divergence count into the journal's metrics. It is the
// one-call audit benesd's /debug/replay and the chaos harness use.
func Window(cfg Config, j *journal.Journal, from, to uint64) (*Report, error) {
	vr := j.Verify(from, to)
	recs, err := j.Read(from, to)
	if err != nil {
		return nil, err
	}
	rep, err := Run(cfg, recs)
	if err != nil {
		return nil, err
	}
	rep.From, rep.To = vr.From, to
	rep.ChainOK = vr.OK
	rep.FirstBadSeq = vr.FirstBadSeq
	rep.Head = vr.Head
	j.Metrics().AddReplayDivergences(int64(len(rep.Divergences)))
	return rep, nil
}

// replayer carries the fresh execution state across one window.
type replayer struct {
	cfg     Config
	net     *core.Network
	comp    *mcast.Compiler
	words   []uint64 // the current mapping's packed copy-network plan
	rep     *Report
	counts  [journal.KindMax]uint64
	lastCp  []uint64 // KindCounts at the window's previous checkpoint
	planeOK bool
}

// Run replays an already-read record window against a fresh network.
// An error means the window could not be replayed at all (bad config);
// per-record mismatches are divergences in the report, not errors.
func Run(cfg Config, recs []*journal.Record) (*Report, error) {
	if cfg.LogN < 1 {
		return nil, fmt.Errorf("replay: Config.LogN must be >= 1, got %d", cfg.LogN)
	}
	net := core.New(cfg.LogN)
	r := &replayer{
		cfg:     cfg,
		net:     net,
		comp:    mcast.NewCompiler(net),
		words:   make([]uint64, mcast.PackedLen(net)),
		rep:     &Report{ChainOK: true},
		planeOK: cfg.Planes > 0,
	}
	var prevSeq uint64
	for _, rec := range recs {
		if prevSeq != 0 && rec.Seq != prevSeq+1 {
			r.diverge(rec, fmt.Sprintf("sequence gap: %d follows %d", rec.Seq, prevSeq))
		}
		prevSeq = rec.Seq
		r.counts[rec.Kind]++
		r.replayOne(rec)
	}
	if n := len(recs); n > 0 {
		r.rep.From = recs[0].Seq
		r.rep.To = recs[n-1].Seq
		r.rep.Replayed = n
	}
	if len(r.rep.Divergences) > 0 {
		r.rep.FirstDivergentSeq = r.rep.Divergences[0].Seq
	}
	return r.rep, nil
}

func (r *replayer) diverge(rec *journal.Record, detail string) {
	r.rep.Divergences = append(r.rep.Divergences, Divergence{
		Seq: rec.Seq, Kind: rec.Kind.String(), Detail: detail,
	})
}

// checkPlane validates plane-scoped records against the configured
// plane count.
func (r *replayer) checkPlane(rec *journal.Record) bool {
	if !r.planeOK {
		return true
	}
	if rec.Plane < 0 || rec.Plane >= r.cfg.Planes {
		r.diverge(rec, fmt.Sprintf("plane %d outside [0, %d)", rec.Plane, r.cfg.Planes))
		return false
	}
	return true
}

// states re-derives the plan for one permutation exactly as the serving
// path does: the paper's self-routing fast path for F(n) members, the
// looping algorithm otherwise.
func (r *replayer) states(d perm.Perm) core.States {
	if res := r.net.SelfRoute(d); res.OK() {
		return res.States
	}
	return r.net.Setup(d)
}

// replayPerm re-executes one permutation record (route, frame, or
// round) gate by gate and audits the delivery digest.
func (r *replayer) replayPerm(rec *journal.Record) {
	d := perm.Perm(rec.Dest)
	if len(d) != r.net.N() {
		r.diverge(rec, fmt.Sprintf("permutation size %d does not match N=%d", len(d), r.net.N()))
		return
	}
	if err := d.Validate(); err != nil {
		r.diverge(rec, fmt.Sprintf("invalid permutation: %v", err))
		return
	}
	res := r.net.ExternalRoute(d, r.states(d))
	for i, want := range d {
		if res.Realized[i] != want {
			r.diverge(rec, fmt.Sprintf("replayed network misroutes input %d to %d, journal says %d",
				i, res.Realized[i], want))
			return
		}
	}
	var got uint64
	switch rec.Kind {
	case journal.KindFrame:
		for _, src := range rec.Srcs {
			if src < 0 || src >= r.net.N() {
				r.diverge(rec, fmt.Sprintf("frame source %d out of range", src))
				return
			}
		}
		got = pairsDigest(rec.Srcs, res.Realized)
	default:
		got = journal.DigestPerm(res.Realized)
	}
	if got != rec.Delivered {
		r.diverge(rec, fmt.Sprintf("delivery digest %016x, journal recorded %016x", got, rec.Delivered))
	}
}

// pairsDigest folds the replayed (src, realized[src]) pairs in the
// frame's recorded source order — the same order the live dispatch
// digested its verified deliveries in.
func pairsDigest(srcs []int, realized perm.Perm) uint64 {
	h := journal.NewHash64()
	for _, src := range srcs {
		h.Int(int64(src))
		h.Int(int64(realized[src]))
	}
	return h.Sum()
}

// replayMcast recompiles one mapping through the copy network and
// audits each delivered output by the packed plan's backward walk.
func (r *replayer) replayMcast(rec *journal.Record) {
	m := mcast.Mapping(rec.Dest)
	if err := m.Validate(r.net.N()); err != nil {
		r.diverge(rec, fmt.Sprintf("invalid mapping: %v", err))
		return
	}
	if err := r.comp.CompilePacked(m, r.words); err != nil {
		r.diverge(rec, fmt.Sprintf("mapping no longer compiles: %v", err))
		return
	}
	// A frame digests the outputs it delivered, a round every assigned
	// output, each as (walked source, output).
	outs := rec.Srcs
	if rec.Kind == journal.KindMcastFrame {
		for _, out := range outs {
			if out < 0 || out >= r.net.N() {
				r.diverge(rec, fmt.Sprintf("delivered output %d out of range", out))
				return
			}
		}
	} else {
		outs = nil
		for out, src := range m {
			if src >= 0 {
				outs = append(outs, out)
			}
		}
	}
	srcs := make([]int, len(outs))
	mcast.Walk(r.net, r.words, outs, srcs, nil, nil)
	h := journal.NewHash64()
	for k, out := range outs {
		h.Int(int64(srcs[k]))
		h.Int(int64(out))
	}
	if got := h.Sum(); got != rec.Delivered {
		r.diverge(rec, fmt.Sprintf("delivery digest %016x, journal recorded %016x", got, rec.Delivered))
	}
}

// replayCheckpoint audits the journal-assigned per-kind record counts:
// between two in-window checkpoints, the recorded deltas must equal the
// records replay actually saw.
func (r *replayer) replayCheckpoint(rec *journal.Record) {
	r.rep.Checkpoints++
	cp := rec.Checkpoint
	if cp == nil {
		r.diverge(rec, "checkpoint record carries no payload")
		return
	}
	if len(cp.KindCounts) != journal.KindMax {
		r.diverge(rec, fmt.Sprintf("checkpoint carries %d kind counts, want %d", len(cp.KindCounts), journal.KindMax))
		return
	}
	if r.lastCp != nil {
		// r.counts includes this checkpoint record itself; cp.KindCounts
		// counts records strictly before it, as did lastCp.
		for k := 1; k < journal.KindMax; k++ {
			wantDelta := cp.KindCounts[k] - r.lastCp[k]
			gotDelta := r.counts[k]
			if journal.Kind(k) == journal.KindCheckpoint {
				gotDelta-- // exclude the checkpoint being audited
			}
			if gotDelta != wantDelta {
				r.diverge(rec, fmt.Sprintf("checkpoint delta for %s: journal says %d, replay saw %d",
					journal.Kind(k), wantDelta, gotDelta))
				return
			}
		}
	}
	r.lastCp = append([]uint64(nil), cp.KindCounts...)
	r.counts = [journal.KindMax]uint64{}
	r.counts[journal.KindCheckpoint] = 1 // this record, excluded above
}

// replayOne dispatches one record to its kind's auditor.
func (r *replayer) replayOne(rec *journal.Record) {
	switch rec.Kind {
	case journal.KindRoute:
		r.replayPerm(rec)
	case journal.KindFrame, journal.KindRound:
		if r.checkPlane(rec) {
			r.replayPerm(rec)
		}
	case journal.KindMcastFrame, journal.KindMcastRound:
		if r.checkPlane(rec) {
			r.replayMcast(rec)
		}
	case journal.KindInject:
		if r.checkPlane(rec) {
			for _, f := range rec.Faults {
				if err := r.net.CheckFault(f); err != nil {
					r.diverge(rec, fmt.Sprintf("injected fault invalid for this geometry: %v", err))
					break
				}
			}
		}
	case journal.KindFail, journal.KindRestore:
		r.checkPlane(rec)
	case journal.KindCheckpoint:
		r.replayCheckpoint(rec)
	default:
		r.diverge(rec, "unknown record kind")
	}
}
