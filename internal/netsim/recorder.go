package netsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
)

// The paper's network is N·log N − N/2 two-state switches arranged in
// 2·log N − 1 stages, and per-switch load balance — not aggregate
// throughput — is what determines packet-mode Benes performance
// (Huang & Walrand). The Recorder is the gate-level flight recorder
// behind that claim: per-switch, per-stage atomic counters of
//
//   - traversals: destination tags that physically passed through the
//     switch (two per switch per full permutation vector);
//   - flips: state transitions between consecutively routed vectors,
//     from the all-straight power-on setting — the control-bit cost
//     metric the KR-Benes analysis argues is the true price of a
//     reconfiguration;
//   - forced: settings imposed by the omega bit (Section II) instead
//     of decided from the tag;
//   - fault hits: vectors that demanded the opposite state from a
//     stuck switch — the exact coordinates where injected damage bites.
//
// Counter storage is sharded so concurrent writers (engine workers,
// fabric dispatchers) do not contend on the same cache lines; readers
// sum across shards. A nil *Recorder (and a nil *RecorderShard) is the
// disabled state: every method no-ops after a nil check, so the hot
// path pays nothing when accounting is off.

// counter kinds, interleaved per switch inside a shard.
const (
	kindTraversed = iota // tags through the switch (beyond full-vector passes)
	kindFlips            // state transitions between consecutive vectors
	kindForced           // omega-bit forced settings
	kindFaultHits        // vectors demanding the opposite of a stuck state
	kindBcast            // transitions entering or leaving a broadcast state
	recKinds
)

// Recorder accumulates per-switch gate-level counters for one network
// geometry. All methods are safe for concurrent use; all methods are
// no-ops on a nil receiver.
type Recorder struct {
	stages   int // 2n - 1
	switches int // N/2
	words    int // uint64 words per stage in a state bitmask
	shards   []RecorderShard
	next     atomic.Uint64 // round-robin Shard() assignment

	// prev is the last recorded state bitmask, shared by every shard so
	// flip counts reflect the physical switch flipping between
	// consecutively applied vectors, not one count per writer. prevHi is
	// the second state bit of the four-state (multicast) encoding: a set
	// bit means the switch last sat in a broadcast state. Binary vectors
	// clear it, so flip counts stay exact when unicast and multicast
	// passes interleave on the same hardware.
	prev   []atomic.Uint64
	prevHi []atomic.Uint64
}

// RecorderShard is one writer's slice of a Recorder. A shard may be
// used concurrently, but writers get the least contention by holding
// their own (Engine workers acquire one each via Shard).
type RecorderShard struct {
	rec  *Recorder
	full atomic.Int64 // full-permutation vectors recorded via RecordVector
	c    []atomic.Int64
	_    [40]byte // keep neighbouring shards off one cache line
}

// NewRecorder builds a recorder for net's geometry with the given
// number of writer shards (values < 1 are treated as 1).
func NewRecorder(net *core.Network, shards int) *Recorder {
	return NewRecorderGeom(net.Stages(), net.SwitchesPerStage(), shards)
}

// NewRecorderGeom builds a recorder for an arbitrary stages x switches
// grid — the copy ladder of a multicast plan is log N stages of N/2
// four-state switches, a geometry no *core.Network describes.
func NewRecorderGeom(stages, switches, shards int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	r := &Recorder{
		stages:   stages,
		switches: switches,
		shards:   make([]RecorderShard, shards),
	}
	r.words = (r.switches + 63) / 64
	r.prev = make([]atomic.Uint64, r.stages*r.words)
	r.prevHi = make([]atomic.Uint64, r.stages*r.words)
	for i := range r.shards {
		r.shards[i].rec = r
		r.shards[i].c = make([]atomic.Int64, r.stages*r.switches*recKinds)
	}
	return r
}

// Stages returns the recorded stage count, 2 log N - 1 (0 on nil).
func (r *Recorder) Stages() int {
	if r == nil {
		return 0
	}
	return r.stages
}

// SwitchesPerStage returns N/2 (0 on nil).
func (r *Recorder) SwitchesPerStage() int {
	if r == nil {
		return 0
	}
	return r.switches
}

// Shard hands out writer shards round-robin. Each writer goroutine
// should hold its own. Shard on a nil recorder returns nil, and a nil
// shard no-ops on every record call — the disabled fast path.
func (r *Recorder) Shard() *RecorderShard {
	if r == nil {
		return nil
	}
	return &r.shards[r.next.Add(1)%uint64(len(r.shards))]
}

// shardFor deterministically spreads per-switch writers (one goroutine
// per switch in the concurrent engine) across shards.
func (r *Recorder) shardFor(stage, sw int) *RecorderShard {
	if r == nil {
		return nil
	}
	return &r.shards[(stage*r.switches+sw)%len(r.shards)]
}

func (sh *RecorderShard) at(stage, sw, kind int) *atomic.Int64 {
	return &sh.c[(stage*sh.rec.switches+sw)*recKinds+kind]
}

// Traverse counts one tag through switch (stage, sw).
func (sh *RecorderShard) Traverse(stage, sw int) {
	if sh == nil {
		return
	}
	sh.at(stage, sw, kindTraversed).Add(1)
}

// Flip counts one state transition at switch (stage, sw).
func (sh *RecorderShard) Flip(stage, sw int) {
	if sh == nil {
		return
	}
	sh.at(stage, sw, kindFlips).Add(1)
}

// Forced counts one omega-bit forced setting at switch (stage, sw).
func (sh *RecorderShard) Forced(stage, sw int) {
	if sh == nil {
		return
	}
	sh.at(stage, sw, kindForced).Add(1)
}

// FaultHit counts one vector that demanded the opposite of switch
// (stage, sw)'s stuck state.
func (sh *RecorderShard) FaultHit(stage, sw int) {
	if sh == nil {
		return
	}
	sh.at(stage, sw, kindFaultHits).Add(1)
}

// Bcast counts one broadcast-state transition at switch (stage, sw):
// the switch entered or left an upper/lower broadcast setting between
// consecutive vectors.
func (sh *RecorderShard) Bcast(stage, sw int) {
	if sh == nil {
		return
	}
	sh.at(stage, sw, kindBcast).Add(1)
}

// PackStates renders a full switch setting as the flat bitmask
// RecordVector consumes: bit i of word stage*words + i/64 is switch
// (stage, i)'s crossed state. Plans precompute this once so the warm
// serving path diffs words instead of booleans. Nil on a nil recorder.
func (r *Recorder) PackStates(st core.States) []uint64 {
	if r == nil {
		return nil
	}
	return r.PackStatesInto(st, make([]uint64, r.stages*r.words))
}

// PackStatesInto is PackStates writing into a caller-owned mask buffer
// of length MaskWords; every word is overwritten, so a dirty buffer is
// fine. RecordVector and RecordFlips copy out of the mask, so the
// buffer is safe to reuse across passes — the allocation-free path for
// callers that set up a fresh permutation per frame. Nil on a nil
// recorder.
func (r *Recorder) PackStatesInto(st core.States, mask []uint64) []uint64 {
	if r == nil {
		return nil
	}
	for s, row := range st {
		words := mask[s*r.words : (s+1)*r.words]
		for w := range words {
			// Build the word in a register and store it once.
			var word uint64
			for i, crossed := range row[w*64 : min(w*64+64, len(row))] {
				var bit uint64
				if crossed {
					bit = 1
				}
				word |= bit << uint(i)
			}
			words[w] = word
		}
	}
	return mask
}

// PackMcastStatesInto packs a four-state setting into the caller's
// lo/hi bitmask pair (each of length MaskWords, cleared first): bit i
// of lo word stage*words + i/64 is the low bit of switch (stage, i)'s
// state and the matching hi bit is set when the state broadcasts
// (McBcastUpper / McBcastLower). RecordMcastFlips diffs both planes.
// Nil receivers no-op.
func (r *Recorder) PackMcastStatesInto(st core.McastStates, lo, hi []uint64) {
	if r == nil {
		return
	}
	clear(lo)
	clear(hi)
	for s := range st {
		for i, state := range st[s] {
			w, bit := s*r.words+i/64, uint64(1)<<uint(i%64)
			if state&1 != 0 {
				lo[w] |= bit
			}
			if state.Broadcast() {
				hi[w] |= bit
			}
		}
	}
}

// MaskWords returns the length of a packed state bitmask for this
// recorder's geometry (0 on nil): one word block per stage.
func (r *Recorder) MaskWords() int {
	if r == nil {
		return 0
	}
	return r.stages * r.words
}

// RecordVector accounts one full-permutation pass whose switch setting
// is mask (from PackStates): every switch carried two tags, and every
// switch whose state differs from the previously recorded vector
// flipped. The traversal increment is kept as a per-shard vector count
// and folded in at read time, so the per-vector cost is one atomic add
// plus a word-compare sweep that is all loads while the setting is
// unchanged — the warm-cache case.
func (sh *RecorderShard) RecordVector(mask []uint64) {
	if sh == nil {
		return
	}
	sh.full.Add(1)
	sh.RecordFlips(mask)
}

// RecordFlips folds only the state-transition half of a pass into the
// counters: used directly for partially filled frames, whose traversal
// counts follow the real packets' paths instead of every port.
func (sh *RecorderShard) RecordFlips(mask []uint64) {
	if sh == nil {
		return
	}
	r := sh.rec
	for s := 0; s < r.stages; s++ {
		base := s * r.words
		for w := 0; w < r.words; w++ {
			have := r.prev[base+w].Load()
			hiHave := r.prevHi[base+w].Load()
			want := mask[base+w]
			if have == want && hiHave == 0 {
				continue
			}
			r.prev[base+w].Store(want)
			if hiHave != 0 {
				// A binary vector leaves every broadcast state: count
				// those transitions and clear the high plane.
				r.prevHi[base+w].Store(0)
			}
			diff := (have ^ want) | hiHave
			for diff != 0 {
				b := bits.TrailingZeros64(diff)
				bit := uint64(1) << uint(b)
				diff &^= bit
				sh.Flip(s, w*64+b)
				if hiHave&bit != 0 {
					sh.Bcast(s, w*64+b)
				}
			}
		}
	}
}

// RecordMcastFlips is RecordFlips for a four-state setting packed by
// PackMcastStatesInto: a switch flips when either state bit changed,
// and additionally counts a broadcast transition when the broadcast
// bit changed — the copy network's reconfiguration cost metric.
func (sh *RecorderShard) RecordMcastFlips(lo, hi []uint64) {
	if sh == nil {
		return
	}
	r := sh.rec
	for s := 0; s < r.stages; s++ {
		base := s * r.words
		for w := 0; w < r.words; w++ {
			loHave := r.prev[base+w].Load()
			hiHave := r.prevHi[base+w].Load()
			loWant, hiWant := lo[base+w], hi[base+w]
			if loHave == loWant && hiHave == hiWant {
				continue
			}
			r.prev[base+w].Store(loWant)
			r.prevHi[base+w].Store(hiWant)
			diff := (loHave ^ loWant) | (hiHave ^ hiWant)
			bdiff := hiHave ^ hiWant
			for diff != 0 {
				b := bits.TrailingZeros64(diff)
				bit := uint64(1) << uint(b)
				diff &^= bit
				sh.Flip(s, w*64+b)
				if bdiff&bit != 0 {
					sh.Bcast(s, w*64+b)
				}
			}
		}
	}
}

// StageTotals is one stage's counter sums across all switches.
type StageTotals struct {
	Traversed int64 `json:"traversed"`
	Flips     int64 `json:"flips"`
	Forced    int64 `json:"forced"`
	FaultHits int64 `json:"fault_hits"`
	Bcast     int64 `json:"bcast_flips"`
}

// fullVectors sums the full-permutation passes across shards; each
// contributes two traversals to every switch.
func (r *Recorder) fullVectors() int64 {
	total := int64(0)
	for i := range r.shards {
		total += r.shards[i].full.Load()
	}
	return total
}

// kindRow sums one counter kind for every switch of one stage into dst.
func (r *Recorder) kindRow(stage, kind int, dst []int64) {
	for i := range dst {
		dst[i] = 0
	}
	for sh := range r.shards {
		base := stage * r.switches
		for i := 0; i < r.switches; i++ {
			dst[i] += r.shards[sh].c[(base+i)*recKinds+kind].Load()
		}
	}
}

// TraversedRow returns stage's per-switch traversal counts: the
// path-accounted tags plus two per full vector. Nil on a nil recorder.
func (r *Recorder) TraversedRow(stage int) []int64 {
	if r == nil {
		return nil
	}
	row := make([]int64, r.switches)
	r.kindRow(stage, kindTraversed, row)
	full := 2 * r.fullVectors()
	for i := range row {
		row[i] += full
	}
	return row
}

// StageTotals sums one stage's counters across switches and shards.
func (r *Recorder) StageTotals(stage int) StageTotals {
	if r == nil {
		return StageTotals{}
	}
	if stage < 0 || stage >= r.stages {
		panic(fmt.Sprintf("netsim: stage %d out of range [0,%d)", stage, r.stages))
	}
	var t StageTotals
	for sh := range r.shards {
		base := stage * r.switches
		for i := 0; i < r.switches; i++ {
			t.Traversed += r.shards[sh].c[(base+i)*recKinds+kindTraversed].Load()
			t.Flips += r.shards[sh].c[(base+i)*recKinds+kindFlips].Load()
			t.Forced += r.shards[sh].c[(base+i)*recKinds+kindForced].Load()
			t.FaultHits += r.shards[sh].c[(base+i)*recKinds+kindFaultHits].Load()
			t.Bcast += r.shards[sh].c[(base+i)*recKinds+kindBcast].Load()
		}
	}
	t.Traversed += 2 * r.fullVectors() * int64(r.switches)
	return t
}

// StageCounts is the full per-switch view of one stage.
type StageCounts struct {
	Stage     int     `json:"stage"`
	Traversed []int64 `json:"traversed"`
	Flips     []int64 `json:"flips"`
	Forced    []int64 `json:"forced"`
	FaultHits []int64 `json:"fault_hits"`
	Bcast     []int64 `json:"bcast_flips"`
}

// RecorderSnapshot is a point-in-time copy of every counter,
// stage-major. Concurrent recording may straddle the capture; each
// individual counter is read atomically.
type RecorderSnapshot struct {
	Stages           int           `json:"stages"`
	SwitchesPerStage int           `json:"switches_per_stage"`
	FullVectors      int64         `json:"full_vectors"`
	Counts           []StageCounts `json:"counts"`
}

// Snapshot copies all counters, folding the full-vector traversal share
// into every switch. Zero-valued on a nil recorder.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	s := RecorderSnapshot{
		Stages:           r.stages,
		SwitchesPerStage: r.switches,
		FullVectors:      r.fullVectors(),
		Counts:           make([]StageCounts, r.stages),
	}
	full := 2 * s.FullVectors
	for st := 0; st < r.stages; st++ {
		sc := StageCounts{
			Stage:     st,
			Traversed: make([]int64, r.switches),
			Flips:     make([]int64, r.switches),
			Forced:    make([]int64, r.switches),
			FaultHits: make([]int64, r.switches),
			Bcast:     make([]int64, r.switches),
		}
		r.kindRow(st, kindTraversed, sc.Traversed)
		r.kindRow(st, kindFlips, sc.Flips)
		r.kindRow(st, kindForced, sc.Forced)
		r.kindRow(st, kindFaultHits, sc.FaultHits)
		r.kindRow(st, kindBcast, sc.Bcast)
		for i := range sc.Traversed {
			sc.Traversed[i] += full
		}
		s.Counts[st] = sc
	}
	return s
}
