package netsim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// The paper's network is N·log N − N/2 two-state switches arranged in
// 2·log N − 1 stages, and per-switch load balance — not aggregate
// throughput — is what determines packet-mode Benes performance
// (Huang & Walrand). The Recorder is the gate-level flight recorder
// behind that claim: per-switch, per-stage counters of
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
// Storage is bit-sliced. Whole-vector records (a switch setting, or a
// frame's traversal words) touch up to 64 switches per word operation:
// each 64-switch word of each stage owns planeBits bit-planes, plane k
// holding bit k of every switch's pending count, and adding a word is a
// ripple carry up the planes. A switch whose pending count reaches
// 2^planeBits spills it into its int64 cell, one cell per (switch,
// kind) for the whole recorder, and a reader's count is cell plus
// decoded planes. Each kind's cells are one array, created by the
// kind's first count (a spill or a single-switch add), so a kind that
// never counts costs no memory: route-only traffic counts flips alone,
// and a recorder's other kinds read zero. One mutex orders the
// previous-state update, the plane adds and the spills against each
// other and against readers, so counts are exact and a snapshot never
// splits a vector record. Single-switch calls (Traverse, Flip, ...)
// skip the planes and the lock: they are atomic adds on the same
// cells.
//
// A nil *Recorder is the disabled state: every method no-ops after a
// nil check, so the hot path pays nothing when accounting is off.

// counter kinds, each with its own cell array.
const (
	kindTraversed = iota // tags through the switch (beyond full-vector passes)
	kindFlips            // state transitions between consecutive vectors
	kindForced           // omega-bit forced settings
	kindFaultHits        // vectors demanding the opposite of a stuck state
	kindBcast            // transitions entering or leaving a broadcast state
	recKinds
)

// planeBits is the number of bit-planes per (stage, word): a switch's
// pending count wraps, spilling 2^planeBits into its cell, once every
// 2^planeBits counts. Eight planes fill one 64-byte cache line.
const planeBits = 8

// Recorder accumulates per-switch gate-level counters for one network
// geometry. All methods are safe for concurrent use; all methods are
// no-ops on a nil receiver.
type Recorder struct {
	stages   int // 2n - 1
	switches int // N/2
	words    int // uint64 words per stage in a state bitmask

	// cells holds one array per counter kind, one cell per switch,
	// stage-major, nil until the kind's first count (see kindCells).
	// The cells are atomic because single-switch calls add to them
	// without taking mu.
	cells [recKinds]atomic.Pointer[[]atomic.Int64]

	mu sync.Mutex
	// full counts full-permutation vectors; each contributes two
	// traversals to every switch, folded in at read time.
	full int64
	// prev is the last recorded state bitmask, so a flip means the
	// physical switch changed between consecutively applied vectors.
	// prevHi is the second state bit of the four-state (multicast)
	// encoding: a set bit means the switch last sat in a broadcast
	// state. Binary vectors clear it, so flip counts stay exact when
	// unicast and multicast passes interleave on the same hardware.
	prev, prevHi []uint64
	// flipPl and travPl are the bit-planes of the flip and traversal
	// counts: plane k of word i is element i*planeBits+k.
	flipPl, travPl []uint64
}

// NewRecorder builds a recorder for net's geometry. shards is ignored:
// every writer records into the same storage. It stays in the
// signature for callers outside this module.
func NewRecorder(net *core.Network, shards int) *Recorder {
	return NewRecorderGeom(net.Stages(), net.SwitchesPerStage())
}

// NewRecorderGeom builds a recorder for an arbitrary stages x switches
// grid — the copy ladder of a multicast plan is log N stages of N/2
// four-state switches, a geometry no *core.Network describes.
func NewRecorderGeom(stages, switches int) *Recorder {
	words := (switches + 63) / 64
	return &Recorder{
		stages:   stages,
		switches: switches,
		words:    words,
		prev:     make([]uint64, stages*words),
		prevHi:   make([]uint64, stages*words),
		flipPl:   make([]uint64, stages*words*planeBits),
		travPl:   make([]uint64, stages*words*planeBits),
	}
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

// kindCells returns kind's cell array for a count, creating it on the
// kind's first one.
func (r *Recorder) kindCells(kind int) []atomic.Int64 {
	if c := r.cells[kind].Load(); c != nil {
		return *c
	}
	return r.newCells(kind)
}

// newCells installs kind's cell array. First counts that race agree on
// one array: a writer that loses the install counts into the winner's,
// so no count lands in an array readers never see.
func (r *Recorder) newCells(kind int) []atomic.Int64 {
	c := make([]atomic.Int64, r.stages*r.switches)
	if r.cells[kind].CompareAndSwap(nil, &c) {
		return c
	}
	return *r.cells[kind].Load()
}

// Traverse counts one tag through switch (stage, sw).
func (r *Recorder) Traverse(stage, sw int) {
	if r == nil {
		return
	}
	r.kindCells(kindTraversed)[stage*r.switches+sw].Add(1)
}

// Traversals is a recorder's traversal cells, loaded once by a walk
// that counts a traversal per hop, so the hops skip the first-count
// check Traverse makes. The zero Traversals, a nil recorder's, counts
// nothing.
type Traversals struct {
	c        []atomic.Int64
	switches int
}

// Traversals returns r's traversal counter, creating the kind's cells
// if no traversal has been counted yet. Zero on a nil recorder.
func (r *Recorder) Traversals() Traversals {
	if r == nil {
		return Traversals{}
	}
	return Traversals{c: r.kindCells(kindTraversed), switches: r.switches}
}

// Add counts one tag through switch (stage, sw), as Traverse does.
func (t Traversals) Add(stage, sw int) {
	if t.c != nil {
		t.c[stage*t.switches+sw].Add(1)
	}
}

// Flip counts one state transition at switch (stage, sw).
func (r *Recorder) Flip(stage, sw int) {
	if r == nil {
		return
	}
	r.kindCells(kindFlips)[stage*r.switches+sw].Add(1)
}

// Forced counts one omega-bit forced setting at switch (stage, sw).
func (r *Recorder) Forced(stage, sw int) {
	if r == nil {
		return
	}
	r.kindCells(kindForced)[stage*r.switches+sw].Add(1)
}

// FaultHit counts one vector that demanded the opposite of switch
// (stage, sw)'s stuck state.
func (r *Recorder) FaultHit(stage, sw int) {
	if r == nil {
		return
	}
	r.kindCells(kindFaultHits)[stage*r.switches+sw].Add(1)
}

// MaskWords returns the length of a packed state bitmask for this
// recorder's geometry (0 on nil): one word block per stage.
func (r *Recorder) MaskWords() int {
	if r == nil {
		return 0
	}
	return r.stages * r.words
}

// addWord adds one to the pending count of every switch set in inc, in
// mask word i of the given planes, rippling the carry up the planes;
// switches whose count wraps spill 2^planeBits into their kind cell.
// The caller holds mu.
func (r *Recorder) addWord(planes []uint64, i int, inc uint64, kind int) {
	p := planes[i*planeBits : (i+1)*planeBits]
	for k := range p {
		if inc == 0 {
			return
		}
		p[k], inc = p[k]^inc, p[k]&inc
	}
	r.addCells(i, inc, kind, 1<<planeBits)
}

// addCells adds n to the kind cell of every switch set in mask word i.
// An empty set leaves the kind's cells as they are, created or not.
func (r *Recorder) addCells(i int, set uint64, kind int, n int64) {
	if set == 0 {
		return
	}
	c := r.kindCells(kind)[i/r.words*r.switches+i%r.words*64:]
	for ; set != 0; set &= set - 1 {
		c[bits.TrailingZeros64(set)].Add(n)
	}
}

// RecordVector accounts one full-permutation pass whose switch setting
// is mask, packed as the setup kernels write it (core.Network.SetupInto
// and SelfRouteInto; the form the engine caches plans in; MaskWords
// words): every switch carried two tags, and every
// switch whose state differs from the previously recorded vector
// flipped. The traversals are one vector count folded in at read
// time; the flips cost a word compare per 64 switches and, where the
// setting changed, a ripple-carry add of the diff word into the flip
// planes — about two word operations per changed word.
func (r *Recorder) RecordVector(mask []uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.full++
	r.recordFlips(mask)
	r.mu.Unlock()
}

// RecordFlips folds only the state-transition half of a pass into the
// counters, for settings whose traversals are accounted elsewhere (the
// multicast walk counts its own).
func (r *Recorder) RecordFlips(mask []uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordFlips(mask)
	r.mu.Unlock()
}

// recordFlips diffs mask against the previous setting. A binary vector
// leaves every broadcast state: those transitions are counted and the
// high plane is cleared. The caller holds mu.
func (r *Recorder) recordFlips(mask []uint64) {
	for i, want := range mask[:len(r.prev)] {
		have, hiHave := r.prev[i], r.prevHi[i]
		if have == want && hiHave == 0 {
			continue
		}
		r.prev[i], r.prevHi[i] = want, 0
		r.addWord(r.flipPl, i, (have^want)|hiHave, kindFlips)
		r.addCells(i, hiHave, kindBcast, 1)
	}
}

// RecordMcastFlips is RecordFlips for a four-state setting packed as
// the multicast compiler writes its copy ladder (lo each switch's
// state&1, hi its broadcast bit): a switch flips when either state bit changed,
// and additionally counts a broadcast transition when the broadcast
// bit changed — the copy network's reconfiguration cost metric.
func (r *Recorder) RecordMcastFlips(lo, hi []uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range r.prev {
		loHave, hiHave := r.prev[i], r.prevHi[i]
		loWant, hiWant := lo[i], hi[i]
		if loHave == loWant && hiHave == hiWant {
			continue
		}
		r.prev[i], r.prevHi[i] = loWant, hiWant
		r.addWord(r.flipPl, i, (loHave^loWant)|(hiHave^hiWant), kindFlips)
		r.addCells(i, hiHave^hiWant, kindBcast, 1)
	}
	r.mu.Unlock()
}

// Paths collects one frame's switch traversals as bit words laid out
// like a state bitmask: a switch has two inputs, so a frame's tags
// cross it at most twice, and two words per (stage, word) — switches
// crossed at least once, switches crossed twice — hold the frame's
// whole traversal count. Marking costs two ORs; RecordFrame adds the
// words to the recorder once per frame. A Paths belongs to one
// goroutine. Every method no-ops on a nil Paths.
type Paths struct {
	words    int
	one, two []uint64
}

// NewPaths returns an empty traversal collector for r's geometry, nil
// on a nil recorder.
func (r *Recorder) NewPaths() *Paths {
	if r == nil {
		return nil
	}
	return &Paths{words: r.words, one: make([]uint64, r.MaskWords()), two: make([]uint64, r.MaskWords())}
}

// Reset empties p for the next frame.
func (p *Paths) Reset() {
	if p == nil {
		return
	}
	clear(p.one)
	clear(p.two)
}

// Mark counts one tag through switch (stage, sw). At most two marks
// per switch between Resets are counted.
func (p *Paths) Mark(stage, sw int) {
	if p == nil {
		return
	}
	i, bit := stage*p.words+sw>>6, uint64(1)<<uint(sw&63)
	p.two[i] |= p.one[i] & bit
	p.one[i] |= bit
}

// RecordFrame accounts one frame: the flips of its switch setting mask
// (as RecordFlips) and the traversals p collected, under one lock. p
// is left as it was.
func (r *Recorder) RecordFrame(mask []uint64, p *Paths) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordFlips(mask)
	for i, one := range p.one {
		r.addWord(r.travPl, i, one, kindTraversed)
		r.addWord(r.travPl, i, p.two[i], kindTraversed)
	}
	r.mu.Unlock()
}

// StageTotals is one stage's counter sums across all switches.
type StageTotals struct {
	Traversed int64 `json:"traversed"`
	Flips     int64 `json:"flips"`
	Forced    int64 `json:"forced"`
	FaultHits int64 `json:"fault_hits"`
	Bcast     int64 `json:"bcast_flips"`
}

// stageCells returns one stage's cells of kind, nil before the kind's
// first count.
func (r *Recorder) stageCells(stage, kind int) []atomic.Int64 {
	c := r.cells[kind].Load()
	if c == nil {
		return nil
	}
	return (*c)[stage*r.switches : (stage+1)*r.switches]
}

// kindRow loads one counter kind's cells for every switch of one stage
// into dst: zeros before the kind's first count.
func (r *Recorder) kindRow(stage, kind int, dst []int64) {
	c := r.stageCells(stage, kind)
	if c == nil {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = c[i].Load()
	}
}

// kindTotal sums one counter kind's cells across one stage.
func (r *Recorder) kindTotal(stage, kind int) int64 {
	c, total := r.stageCells(stage, kind), int64(0)
	for i := range c {
		total += c[i].Load()
	}
	return total
}

// addPlaneRow adds the pending plane counts of one stage to row. The
// caller holds mu.
func (r *Recorder) addPlaneRow(planes []uint64, stage int, row []int64) {
	for w := 0; w < r.words; w++ {
		i := stage*r.words + w
		for k, word := range planes[i*planeBits : (i+1)*planeBits] {
			for ; word != 0; word &= word - 1 {
				row[w*64+bits.TrailingZeros64(word)] += 1 << k
			}
		}
	}
}

// planeTotal sums the pending plane counts of one stage. The caller
// holds mu.
func (r *Recorder) planeTotal(planes []uint64, stage int) int64 {
	total := int64(0)
	for k, word := range planes[stage*r.words*planeBits : (stage+1)*r.words*planeBits] {
		total += int64(bits.OnesCount64(word)) << (k % planeBits)
	}
	return total
}

// traversedRow fills dst with stage's per-switch traversal counts. The
// caller holds mu.
func (r *Recorder) traversedRow(stage int, dst []int64) {
	r.kindRow(stage, kindTraversed, dst)
	r.addPlaneRow(r.travPl, stage, dst)
	for i := range dst {
		dst[i] += 2 * r.full
	}
}

// TraversedRow returns stage's per-switch traversal counts: the
// path-accounted tags plus two per full vector. Nil on a nil recorder.
func (r *Recorder) TraversedRow(stage int) []int64 {
	if r == nil {
		return nil
	}
	row := make([]int64, r.switches)
	r.mu.Lock()
	r.traversedRow(stage, row)
	r.mu.Unlock()
	return row
}

// StageTotals sums one stage's counters across switches.
func (r *Recorder) StageTotals(stage int) StageTotals {
	if r == nil {
		return StageTotals{}
	}
	if stage < 0 || stage >= r.stages {
		panic(fmt.Sprintf("netsim: stage %d out of range [0,%d)", stage, r.stages))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return StageTotals{
		Traversed: r.kindTotal(stage, kindTraversed) + r.planeTotal(r.travPl, stage) + 2*r.full*int64(r.switches),
		Flips:     r.kindTotal(stage, kindFlips) + r.planeTotal(r.flipPl, stage),
		Forced:    r.kindTotal(stage, kindForced),
		FaultHits: r.kindTotal(stage, kindFaultHits),
		Bcast:     r.kindTotal(stage, kindBcast),
	}
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

// RecorderSnapshot is a copy of every counter, stage-major. It is
// taken under the recorder's lock, so every vector-level record
// (RecordVector, RecordFlips, RecordMcastFlips, RecordFrame) is wholly
// in it or wholly out; single-switch calls made during the capture may
// land in some cells and not others. No counter in a later snapshot is
// lower than in an earlier one.
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
		Counts:           make([]StageCounts, r.stages),
	}
	for st := range s.Counts {
		s.Counts[st] = StageCounts{
			Stage:     st,
			Traversed: make([]int64, r.switches),
			Flips:     make([]int64, r.switches),
			Forced:    make([]int64, r.switches),
			FaultHits: make([]int64, r.switches),
			Bcast:     make([]int64, r.switches),
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.FullVectors = r.full
	for st := range s.Counts {
		sc := &s.Counts[st]
		r.traversedRow(st, sc.Traversed)
		r.kindRow(st, kindFlips, sc.Flips)
		r.addPlaneRow(r.flipPl, st, sc.Flips)
		r.kindRow(st, kindForced, sc.Forced)
		r.kindRow(st, kindFaultHits, sc.FaultHits)
		r.kindRow(st, kindBcast, sc.Bcast)
	}
	return s
}
