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
// did (SelfRoute for F(n) members, the looping setup otherwise; a
// unicast frame's permutation is its packets' pairs completed by the
// fabric's own scheduler rule and set up by looping, as the plane's
// frame server does; multicast mappings recompile through the
// copy-network compiler), routes it through a fresh gate-level network,
// and compares the realized deliveries' digest against the journal's.
// The first mismatch names the exact divergent sequence number.
// Checkpoint records add a second audit axis: their journal-assigned
// per-kind record counts must match the deltas replay observes between
// checkpoints.
package replay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
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
// one-call audit benesd's /debug/replay and the chaos harness use. The
// replay streams the window: each record is decoded into one reused
// Record and replayed before the next is read, so the window is never
// held in memory at once.
func Window(cfg Config, j *journal.Journal, from, to uint64) (*Report, error) {
	r, err := newReplayer(cfg)
	if err != nil {
		return nil, err
	}
	vr := j.Verify(from, to)
	if err := j.Scan(from, to, r.replay); err != nil {
		return nil, err
	}
	rep := r.report()
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
	ports   []int    // a frame's partial matching or mapping, rebuilt per record
	rep     *Report
	counts  [journal.KindMax]uint64
	lastCp  []uint64 // KindCounts at the window's previous checkpoint
	planeOK bool
}

// Run replays an already-read record window against a fresh network.
// An error means the window could not be replayed at all (bad config);
// per-record mismatches are divergences in the report, not errors.
func Run(cfg Config, recs []*journal.Record) (*Report, error) {
	r, err := newReplayer(cfg)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		r.replay(rec)
	}
	return r.report(), nil
}

func newReplayer(cfg Config) (*replayer, error) {
	if cfg.LogN < 1 {
		return nil, fmt.Errorf("replay: Config.LogN must be >= 1, got %d", cfg.LogN)
	}
	net := core.New(cfg.LogN)
	return &replayer{
		cfg:     cfg,
		net:     net,
		comp:    mcast.NewCompiler(net),
		words:   make([]uint64, mcast.PackedLen(net)),
		ports:   make([]int, net.N()),
		rep:     &Report{ChainOK: true},
		planeOK: cfg.Planes > 0,
	}, nil
}

// replay audits the window's next record. rec need only live until
// replay returns: a divergence copies out its seq and kind.
func (r *replayer) replay(rec *journal.Record) {
	switch {
	case r.rep.Replayed == 0:
		r.rep.From = rec.Seq
	case rec.Seq != r.rep.To+1:
		r.diverge(rec, fmt.Sprintf("sequence gap: %d follows %d", rec.Seq, r.rep.To))
	}
	r.rep.To = rec.Seq
	r.rep.Replayed++
	r.counts[rec.Kind]++
	r.replayOne(rec)
}

// report finishes the window's report.
func (r *replayer) report() *Report {
	if len(r.rep.Divergences) > 0 {
		r.rep.FirstDivergentSeq = r.rep.Divergences[0].Seq
	}
	return r.rep
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

// replayPerm re-executes one permutation record (route or round) gate
// by gate and audits the delivery digest.
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
	if realized, ok := r.route(rec, d, r.states(d)); ok {
		r.audit(rec, journal.DigestPerm(realized))
	}
}

// replayFrame rebuilds a unicast frame's permutation from its packets'
// pairs with the scheduler's completion, sets it up by looping as the
// plane's frame server did, and audits the digest of the real packets'
// (src, realized dst) pairs in the recorded claim order — the order
// the live dispatch digested its verified deliveries in.
func (r *replayer) replayFrame(rec *journal.Record) {
	n := r.net.N()
	if !r.samePairs(rec) {
		return
	}
	partial := r.ports
	for i := range partial {
		partial[i] = fabric.Idle
	}
	for k, src := range rec.Srcs {
		dst := rec.Dsts[k]
		switch {
		case src < 0 || src >= n:
			r.diverge(rec, fmt.Sprintf("frame source %d out of range", src))
			return
		case dst < 0 || dst >= n:
			r.diverge(rec, fmt.Sprintf("frame destination %d out of range", dst))
			return
		case partial[src] != fabric.Idle:
			r.diverge(rec, fmt.Sprintf("frame input %d carries two packets", src))
			return
		}
		partial[src] = dst
	}
	d, err := fabric.Complete(partial)
	if err != nil {
		r.diverge(rec, fmt.Sprintf("frame pairs are not a matching: %v", err))
		return
	}
	realized, ok := r.route(rec, d, r.net.Setup(d))
	if !ok {
		return
	}
	h := journal.NewHash64()
	for _, src := range rec.Srcs {
		h.Int(int64(src))
		h.Int(int64(realized[src]))
	}
	r.audit(rec, h.Sum())
}

// samePairs diverges unless a frame record lists as many destinations
// as sources.
func (r *replayer) samePairs(rec *journal.Record) bool {
	if len(rec.Srcs) != len(rec.Dsts) {
		r.diverge(rec, fmt.Sprintf("frame lists %d sources and %d destinations", len(rec.Srcs), len(rec.Dsts)))
		return false
	}
	return true
}

// route sends d through the fresh network under setting st and reports
// the realized permutation, diverging unless it is d.
func (r *replayer) route(rec *journal.Record, d perm.Perm, st core.States) (perm.Perm, bool) {
	res := r.net.ExternalRoute(d, st)
	for i, want := range d {
		if res.Realized[i] != want {
			r.diverge(rec, fmt.Sprintf("replayed network misroutes input %d to %d, journal says %d",
				i, res.Realized[i], want))
			return nil, false
		}
	}
	return res.Realized, true
}

// audit diverges unless the replayed delivery digest is the recorded one.
func (r *replayer) audit(rec *journal.Record, got uint64) {
	if got != rec.Delivered {
		r.diverge(rec, fmt.Sprintf("delivery digest %016x, journal recorded %016x", got, rec.Delivered))
	}
}

// replayMcastFrame rebuilds a multicast frame's mapping from its
// copies' pairs, every other output idle, and audits it like a round
// over the outputs the frame delivered, in claim order.
func (r *replayer) replayMcastFrame(rec *journal.Record) {
	n := r.net.N()
	if !r.samePairs(rec) {
		return
	}
	m := mcast.Mapping(r.ports)
	for i := range m {
		m[i] = fabric.Idle
	}
	for k, out := range rec.Dsts {
		src := rec.Srcs[k]
		switch {
		case out < 0 || out >= n:
			r.diverge(rec, fmt.Sprintf("delivered output %d out of range", out))
			return
		case src < 0 || src >= n:
			r.diverge(rec, fmt.Sprintf("frame source %d out of range", src))
			return
		case m[out] != fabric.Idle:
			r.diverge(rec, fmt.Sprintf("output %d delivered twice", out))
			return
		}
		m[out] = src
	}
	r.replayMapping(rec, m, rec.Dsts)
}

// replayMcastRound audits a whole-mapping round over every assigned
// output, in ascending order.
func (r *replayer) replayMcastRound(rec *journal.Record) {
	m := mcast.Mapping(rec.Dest)
	if err := m.Validate(r.net.N()); err != nil {
		r.diverge(rec, fmt.Sprintf("invalid mapping: %v", err))
		return
	}
	var outs []int
	for out, src := range m {
		if src >= 0 {
			outs = append(outs, out)
		}
	}
	r.replayMapping(rec, m, outs)
}

// replayMapping recompiles one mapping through the copy network and
// audits the digest of (walked source, output) over outs, each output
// followed back through the packed plan.
func (r *replayer) replayMapping(rec *journal.Record, m mcast.Mapping, outs []int) {
	if err := r.comp.CompilePacked(m, r.words); err != nil {
		r.diverge(rec, fmt.Sprintf("mapping no longer compiles: %v", err))
		return
	}
	srcs := make([]int, len(outs))
	mcast.Walk(r.net, r.words, outs, srcs, nil, nil)
	h := journal.NewHash64()
	for k, out := range outs {
		h.Int(int64(srcs[k]))
		h.Int(int64(out))
	}
	r.audit(rec, h.Sum())
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
	case journal.KindRound:
		if r.checkPlane(rec) {
			r.replayPerm(rec)
		}
	case journal.KindFrame:
		if r.checkPlane(rec) {
			r.replayFrame(rec)
		}
	case journal.KindMcastFrame:
		if r.checkPlane(rec) {
			r.replayMcastFrame(rec)
		}
	case journal.KindMcastRound:
		if r.checkPlane(rec) {
			r.replayMcastRound(rec)
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
