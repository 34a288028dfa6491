// Package collective is the bulk data-movement layer over the packet
// fabric: the named operations a SIMD-style workload actually issues —
// all-to-all, transpose, shuffle, bit reversal, broadcast, gather,
// scatter — compiled into schedules of whole-permutation rounds and
// pipelined across the fabric's switching planes.
//
// The second half of Nassimi & Sahni is exactly this layer: Tables I
// and II list the data-movement permutations (the BPC and inverse-
// omega families) that SIMD algorithms use, and the paper's point is
// that every one of them self-routes — O(log N) gate delays, no
// looping setup. Per-packet scheduling (internal/fabric's VOQ/frame
// path) throws that structure away: it rediscovers a permutation every
// frame and fills it with whatever traffic is queued. The collective
// layer keeps the structure:
//
//   - a pattern compiler (compile.go, exchange.go) turns each named
//     operation into rounds and classifies every round's permutation
//     with perm.Classify — Table I members compile to BPC rounds,
//     all-to-all compiles to the cyclic-shift ring (Table II), and
//     arbitrary exchanges are decomposed by König edge coloring into
//     at most max-degree rounds;
//   - the executor (handle.go) spreads the rounds across the fabric's
//     K planes: every program's rounds read only the immutable input
//     and write disjoint result cells, so K rounds are in flight at
//     once, one per plane, and each plane's plan cache serves repeated
//     rounds at hit cost (Section IV's pipelining: a repeated round
//     pays its setup once);
//   - admission is deadline-aware: a collective whose estimated
//     rounds x round-time exceeds the caller's context deadline is
//     rejected up front instead of timing out halfway;
//   - every collective carries a context-cancellable Handle with
//     per-round progress, and the service aggregates rounds,
//     self-routed vs fallback counts, chunks moved, and per-plane
//     occupancy into one JSON snapshot.
package collective

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/perm"
)

// Errors returned by the submission paths.
var (
	// ErrDeadline reports a deadline-aware admission reject: the
	// compiled schedule cannot finish before the context deadline.
	ErrDeadline = errors.New("collective: deadline cannot be met")
)

// Rounder is the slice of the packet fabric the collective layer
// drives: whole-permutation rounds dispatched one at a time to a
// preferred plane. *fabric.Fabric implements it.
type Rounder interface {
	N() int
	Planes() int
	RouteRound(dest perm.Perm, prefer int) (fabric.RoundResult, error)
	// RouteMulticastRound serves one copy-network round: m[out] names
	// the source whose value lands at output out (fabric.Idle for
	// unassigned outputs), and fan-out — one source feeding many
	// outputs — rides a single pass.
	RouteMulticastRound(m []int, prefer int) (fabric.RoundResult, error)
}

// Options parameterizes New. The zero value is usable.
type Options struct {
	// RoundEstimate seeds the admission controller's per-round service
	// time before any round has been measured. Zero means "no
	// estimate": until the first rounds complete, every deadline is
	// admitted.
	RoundEstimate time.Duration
}

// Service compiles and executes collectives over one fabric. All
// methods are safe for concurrent use; any number of collectives may
// be in flight at once (they share the fabric's planes).
type Service[T any] struct {
	fab  Rounder
	n    int
	logN int

	met    metrics
	active atomic.Int64

	perOp       [numOps]obs.Counter
	planeRounds []atomic.Int64

	// ewmaRoundNs is the exponentially weighted moving average of
	// per-round service time, feeding deadline admission.
	ewmaRoundNs atomic.Int64

	// progs memoizes compiled programs by shape, least recently used
	// first out. Programs are immutable once compiled, so concurrent
	// handles share them freely. Exchange is the one uncached
	// operation: its schedule depends on the full destination matrix,
	// not a few integers.
	progs progCache
}

// metrics is a service's live metrics, one series a field (see
// obs.Export).
type metrics struct {
	Submitted        obs.Counter `metric:"benes_collective_submitted_total" help:"Collectives admitted."`
	Completed        obs.Counter `metric:"benes_collective_completed_total" help:"Collectives finished successfully."`
	Failed           obs.Counter `metric:"benes_collective_failed_total" help:"Collectives settled with a routing error."`
	Cancelled        obs.Counter `metric:"benes_collective_cancelled_total" help:"Collectives aborted by context cancellation."`
	DeadlineRejected obs.Counter `metric:"benes_collective_deadline_rejected_total" help:"Collectives rejected at admission: schedule cannot meet the deadline."`

	Rounds         obs.Counter `metric:"benes_collective_rounds_total" help:"Whole-permutation rounds executed."`
	SelfRouted     obs.Counter `metric:"benes_collective_self_routed_rounds_total" help:"Rounds served without looping setup."`
	Fallbacks      obs.Counter `metric:"benes_collective_fallback_rounds_total" help:"Rounds that fell back to the looping algorithm."`
	McastRounds    obs.Counter `metric:"benes_collective_mcast_rounds_total" help:"Copy-network (multicast) rounds executed."`
	RoundCacheHits obs.Counter `metric:"benes_collective_round_cache_hits_total" help:"Rounds whose plan was already resolved on arrival."`
	ChunksMoved    obs.Counter `metric:"benes_collective_chunks_moved_total" help:"Payload chunks moved by completed rounds."`

	Round    obs.Histogram `metric:"benes_collective_round_seconds" help:"Per-round service time (route plus move application)."`
	EndToEnd obs.Histogram `metric:"benes_collective_op_seconds" help:"End-to-end collective latency, submit to settle."`
}

// progCacheCap bounds the programs one service keeps. Rooted
// collectives key their programs by root and width, so broadcasts from
// every root of a large fabric would otherwise keep one program each
// for good; recompiling an evicted one costs a few percent of the
// copy-network round it schedules.
const progCacheCap = 64

// progCache is an LRU of compiled programs.
type progCache struct {
	mu    sync.Mutex
	ll    list.List // front = most recently used; values are *progEntry
	items map[progKey]*list.Element
}

type progEntry struct {
	key  progKey
	prog *Program
}

// get returns key's program and marks it most recently used, or nil.
func (c *progCache) get(key progKey) *Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(e)
	return e.Value.(*progEntry).prog
}

// put caches prog under key, evicting the least recently used program
// past progCacheCap. A concurrent miss on the same key may have cached
// an equal program first; the later one replaces it.
func (c *progCache) put(key progKey, prog *Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*progEntry).prog = prog
		c.ll.MoveToFront(e)
		return
	}
	c.items[key] = c.ll.PushFront(&progEntry{key: key, prog: prog})
	if c.ll.Len() > progCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*progEntry).key)
	}
}

// progKey identifies a compiled program's shape. Fields unused by an
// operation stay zero.
type progKey struct {
	op           Op
	rows, cols   int
	chunks, root int
}

// cachedProgram returns the memoized program for key, compiling on
// miss. Compile errors are not cached (they are cheap to re-derive and
// callers should see them every time).
func (s *Service[T]) cachedProgram(key progKey, compile func() (*Program, error)) (*Program, error) {
	if prog := s.progs.get(key); prog != nil {
		return prog, nil
	}
	prog, err := compile()
	if err != nil {
		return nil, err
	}
	s.progs.put(key, prog)
	return prog, nil
}

// start checks data against the input shape in — N ports, port p
// holding in(p) chunks — before it fetches or compiles key's program
// and submits it. Checking first means a rejected payload compiles and
// caches nothing: the column collectives and broadcast size their
// programs by the payload's own row widths, and a program cached for a
// payload no valid request can have would push a useful one out.
func (s *Service[T]) start(ctx context.Context, key progKey, in func(p int) int, data [][]T, compile func() (*Program, error)) (*Handle[T], error) {
	if err := checkShape(key.op, s.n, data, in); err != nil {
		return nil, err
	}
	prog, err := s.cachedProgram(key, compile)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, prog, data)
}

// checkShape rejects a payload unless it has n ports and port p holds
// in(p) chunks.
func checkShape[T any](op Op, n int, data [][]T, in func(p int) int) error {
	if len(data) != n {
		return fmt.Errorf("collective: %s payload has %d ports, want N=%d", op, len(data), n)
	}
	for p := range data {
		if want := in(p); len(data[p]) != want {
			return fmt.Errorf("collective: %s payload port %d has %d chunks, want %d",
				op, p, len(data[p]), want)
		}
	}
	return nil
}

// uniformIn is the input shape in which every port holds w chunks.
func uniformIn(w int) func(int) int { return func(int) int { return w } }

// rootIn is the input shape in which root holds w chunks and every
// other port none.
func rootIn(root, w int) func(int) int {
	return func(p int) int {
		if p == root {
			return w
		}
		return 0
	}
}

// New builds a collective service over fab. The fabric's port count
// must be a power of two (it always is — planes are B(n) networks).
func New[T any](fab Rounder, opts Options) *Service[T] {
	n := fab.N()
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	s := &Service[T]{
		fab:         fab,
		n:           n,
		logN:        logN,
		planeRounds: make([]atomic.Int64, fab.Planes()),
	}
	s.progs.items = make(map[progKey]*list.Element, progCacheCap)
	if opts.RoundEstimate > 0 {
		s.ewmaRoundNs.Store(opts.RoundEstimate.Nanoseconds())
	}
	return s
}

// N returns the number of fabric ports a collective spans.
func (s *Service[T]) N() int { return s.n }

// AllToAll starts the personalized all-to-all: chunk j of data[i]
// lands at port j as its chunk i (the result is the transpose of the
// port x chunk matrix). data must be N rows of N chunks.
func (s *Service[T]) AllToAll(ctx context.Context, data [][]T) (*Handle[T], error) {
	return s.start(ctx, progKey{op: OpAllToAll}, uniformIn(s.n), data, func() (*Program, error) {
		return CompileAllToAll(s.logN)
	})
}

// Exchange starts an arbitrary all-to-all: dests[p][c] names the
// destination of chunk c of port p (Keep leaves it in place). The
// chunk from port p lands at its destination's slot p.
func (s *Service[T]) Exchange(ctx context.Context, dests [][]int, data [][]T) (*Handle[T], error) {
	prog, err := CompileExchange(s.logN, dests)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, prog, data)
}

// Transpose starts the rows x cols matrix transpose of Table I over
// every chunk column of data (N rows of equal width >= 1).
func (s *Service[T]) Transpose(ctx context.Context, rows, cols int, data [][]T) (*Handle[T], error) {
	w := width(data)
	return s.start(ctx, progKey{op: OpTranspose, rows: rows, cols: cols, chunks: w}, uniformIn(w), data, func() (*Program, error) {
		return CompileTranspose(s.logN, rows, cols, w)
	})
}

// Shuffle starts the perfect shuffle of Table I over every chunk
// column of data.
func (s *Service[T]) Shuffle(ctx context.Context, data [][]T) (*Handle[T], error) {
	w := width(data)
	return s.start(ctx, progKey{op: OpShuffle, chunks: w}, uniformIn(w), data, func() (*Program, error) {
		return CompileShuffle(s.logN, w)
	})
}

// BitReversal starts the bit-reversal permutation of Table I (Fig. 4)
// over every chunk column of data.
func (s *Service[T]) BitReversal(ctx context.Context, data [][]T) (*Handle[T], error) {
	w := width(data)
	return s.start(ctx, progKey{op: OpBitReversal, chunks: w}, uniformIn(w), data, func() (*Program, error) {
		return CompileBitReversal(s.logN, w)
	})
}

// Broadcast starts a copy-broadcast of the root's chunks to every
// port. data[root] supplies the chunks; every other row must be empty.
// Each chunk rides one copy-network fan-out round.
func (s *Service[T]) Broadcast(ctx context.Context, root int, data [][]T) (*Handle[T], error) {
	chunks := 0
	if root >= 0 && root < len(data) {
		chunks = len(data[root])
	}
	return s.start(ctx, progKey{op: OpBroadcast, root: root, chunks: chunks}, rootIn(root, chunks), data, func() (*Program, error) {
		return CompileBroadcast(s.logN, root, chunks)
	})
}

// AllGather starts the all-gather: every port contributes exactly one
// chunk and ends holding all N in port order — out[p][j] = data[j][0].
// Each contribution rides one copy-network fan-out round.
func (s *Service[T]) AllGather(ctx context.Context, data [][]T) (*Handle[T], error) {
	return s.start(ctx, progKey{op: OpAllGather}, uniformIn(1), data, func() (*Program, error) {
		return CompileAllGather(s.logN)
	})
}

// FanOut starts a pub/sub fan-out: dests[s] lists the subscribers of
// source s's single chunk, and each subscriber receives its
// publishers' chunks in ascending source order. Like Exchange it is
// uncached: the schedule depends on the whole subscription matrix.
func (s *Service[T]) FanOut(ctx context.Context, dests [][]int, data [][]T) (*Handle[T], error) {
	prog, err := CompileFanOut(s.logN, dests)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, prog, data)
}

// Gather starts the collection of one chunk per port at the root:
// data[p] must hold exactly one chunk, and the result's root row holds
// chunk p at slot p.
func (s *Service[T]) Gather(ctx context.Context, root int, data [][]T) (*Handle[T], error) {
	return s.start(ctx, progKey{op: OpGather, root: root}, uniformIn(1), data, func() (*Program, error) {
		return CompileGather(s.logN, root)
	})
}

// Scatter starts the distribution of the root's N chunks: chunk j of
// data[root] lands at port j as its only chunk. Every non-root row
// must be empty.
func (s *Service[T]) Scatter(ctx context.Context, root int, data [][]T) (*Handle[T], error) {
	return s.start(ctx, progKey{op: OpScatter, root: root}, rootIn(root, s.n), data, func() (*Program, error) {
		return CompileScatter(s.logN, root)
	})
}

// width returns the chunk width the compiler should target for a
// column-uniform payload: the first row's length (start's shape check
// then rejects ragged rows before anything compiles).
func width[T any](data [][]T) int {
	if len(data) == 0 {
		return 0
	}
	return len(data[0])
}

// submit validates the payload shape against the compiled program,
// runs deadline admission, and starts the executor.
func (s *Service[T]) submit(ctx context.Context, prog *Program, data [][]T) (*Handle[T], error) {
	if err := checkShape(prog.Op, prog.N, data, func(p int) int { return prog.InChunks[p] }); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if est := s.ewmaRoundNs.Load(); est > 0 {
			need := time.Duration(est) * time.Duration(len(prog.Rounds))
			if remaining := time.Until(deadline); need > remaining {
				s.met.DeadlineRejected.Add(1)
				return nil, fmt.Errorf("%w: %d rounds x %v estimated round time = %v exceeds the %v remaining",
					ErrDeadline, len(prog.Rounds), time.Duration(est), need, remaining.Round(time.Microsecond))
			}
		}
	}
	h := newHandle(s, prog, ctx, data)
	s.met.Submitted.Add(1)
	s.perOp[prog.Op].Add(1)
	s.active.Add(1)
	go h.run()
	return h, nil
}

// observeRounds folds one worker's batched round tally into the
// service counters and feeds the admission estimate the worker's mean
// per-round wall time.
func (s *Service[T]) observeRounds(t *roundTally, meanRound time.Duration) {
	s.met.Rounds.Add(int64(t.rounds))
	s.met.SelfRouted.Add(int64(t.selfRouted))
	s.met.Fallbacks.Add(int64(t.fallbacks))
	s.met.McastRounds.Add(int64(t.mcastRounds))
	s.met.RoundCacheHits.Add(int64(t.cacheHits))
	s.met.ChunksMoved.Add(int64(t.moves))
	for p, c := range t.planeRounds {
		if c > 0 {
			s.planeRounds[p].Add(int64(c))
		}
	}
	// EWMA with weight 1/8; a racy update loses at most one sample.
	sample := meanRound.Nanoseconds()
	old := s.ewmaRoundNs.Load()
	if old == 0 {
		s.ewmaRoundNs.Store(sample)
	} else {
		s.ewmaRoundNs.Store(old + (sample-old)/8)
	}
}

// Stats is the JSON snapshot of a collective service.
type Stats struct {
	Submitted        int64 `json:"submitted"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Cancelled        int64 `json:"cancelled"`
	DeadlineRejected int64 `json:"deadline_rejected"`
	Active           int64 `json:"active"`

	Rounds     int64 `json:"rounds"`
	SelfRouted int64 `json:"self_routed_rounds"`
	Fallbacks  int64 `json:"fallback_rounds"`
	// McastRounds counts the copy-network rounds within SelfRouted:
	// they self-route by construction but take the multicast path, so
	// they are tallied separately too.
	McastRounds    int64 `json:"mcast_rounds"`
	RoundCacheHits int64 `json:"round_cache_hits"`
	ChunksMoved    int64 `json:"chunks_moved"`

	// Round is the per-round service-time histogram; EndToEnd the
	// submit-to-settle latency of whole collectives.
	Round    obs.HistogramSnapshot `json:"round"`
	EndToEnd obs.HistogramSnapshot `json:"end_to_end"`

	// SelfRouteRatio is SelfRouted / Rounds: 1.0 means no round paid
	// looping setup.
	SelfRouteRatio float64 `json:"self_route_ratio"`
	// EstRoundNs is the admission controller's current per-round
	// service-time estimate.
	EstRoundNs int64 `json:"est_round_ns"`
	// PlaneRounds[i] counts the rounds plane i served — the plane
	// occupancy of collective traffic.
	PlaneRounds []int64 `json:"plane_rounds"`
	// PerOp counts submissions by operation name.
	PerOp map[string]int64 `json:"per_op"`
}

// Stats captures the current counters.
func (s *Service[T]) Stats() Stats {
	st := Stats{
		Active:      s.active.Load(),
		EstRoundNs:  s.ewmaRoundNs.Load(),
		PlaneRounds: make([]int64, len(s.planeRounds)),
		PerOp:       make(map[string]int64, numOps),
	}
	obs.Fill(&st, &s.met)
	if st.Rounds > 0 {
		st.SelfRouteRatio = float64(st.SelfRouted) / float64(st.Rounds)
	}
	for i := range s.planeRounds {
		st.PlaneRounds[i] = s.planeRounds[i].Load()
	}
	for op := 0; op < numOps; op++ {
		if c := s.perOp[op].Value(); c > 0 {
			st.PerOp[Op(op).String()] = c
		}
	}
	return st
}

// Register exports the service's series into reg under the
// benes_collective_* names: its metrics, plus the gauges and per-op
// counters computed at scrape time from the executors' counters.
func (s *Service[T]) Register(reg *obs.Registry) {
	reg.Export(&s.met, nil)
	reg.GaugeFunc("benes_collective_active", "Collectives currently in flight.", nil,
		func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("benes_collective_est_round_seconds", "Admission controller's per-round service-time estimate.", nil,
		func() float64 { return float64(s.ewmaRoundNs.Load()) / 1e9 })
	for op := 0; op < numOps; op++ {
		reg.CounterFunc("benes_collective_ops_total", "Collectives submitted, by operation.",
			obs.Labels{{"op", Op(op).String()}}, s.perOp[op].Value)
	}
}
