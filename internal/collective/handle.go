package collective

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// Handle tracks one in-flight collective. It is returned immediately
// by the Service entry points; the schedule executes in the background
// and Wait delivers the result. Cancelling the submission context
// aborts the remaining rounds.
type Handle[T any] struct {
	svc  *Service[T]
	prog *Program
	ctx  context.Context

	// tr is the request trace carried by the submission context (nil
	// when untraced); begin anchors the end-to-end latency sample.
	tr    *obs.Trace
	begin time.Time

	// in aliases the caller's payload (MPI-style ownership: the
	// caller must not modify the buffers until the handle is done).
	// Every round reads only from it, never from state, which is what
	// lets rounds run in any order on any plane.
	in [][]T
	// state is the result: row p sized prog.StateChunks[p],
	// initialized from the input where the shapes overlap, then
	// overwritten by the rounds' moves.
	state [][]T

	completed  atomic.Int64
	selfRouted atomic.Int64
	fallbacks  atomic.Int64
	cacheHits  atomic.Int64

	done    chan struct{}
	errOnce sync.Once
	err     error
}

// HandleStats is a per-collective round tally.
type HandleStats struct {
	Op        string `json:"op"`
	Rounds    int    `json:"rounds"`
	Completed int64  `json:"completed"`
	// SelfRouted counts completed rounds the fabric served without
	// looping setup; Fallbacks counts the rest.
	SelfRouted int64 `json:"self_routed"`
	Fallbacks  int64 `json:"fallbacks"`
	// CacheHits counts rounds whose plan was already in the serving
	// plane's cache when they arrived: a repeated round paying no
	// setup.
	CacheHits int64 `json:"cache_hits"`
}

func newHandle[T any](svc *Service[T], prog *Program, ctx context.Context, data [][]T) *Handle[T] {
	h := &Handle[T]{
		svc:   svc,
		prog:  prog,
		ctx:   ctx,
		tr:    obs.FromContext(ctx),
		begin: time.Now(),
		in:    data,
		state: make([][]T, prog.N),
		done:  make(chan struct{}),
	}
	for p := 0; p < prog.N; p++ {
		h.state[p] = make([]T, prog.StateChunks[p])
		// Covered programs overwrite every state cell, so seeding
		// state from the input would be N*k wasted copies. The rest
		// (gather, exchange with Keep) need the untouched cells to
		// carry the input through.
		if !prog.covered {
			copy(h.state[p], data[p])
		}
	}
	return h
}

// Done returns a channel closed when the collective finishes (result
// ready, failed, or cancelled).
func (h *Handle[T]) Done() <-chan struct{} { return h.done }

// Wait blocks until the collective finishes and returns the result
// buffers (row p sized by the program's output shape) or the first
// error. The buffers are owned by the caller once Wait returns.
func (h *Handle[T]) Wait() ([][]T, error) {
	<-h.done
	if h.err != nil {
		return nil, h.err
	}
	return h.state, nil
}

// Progress reports completed and total rounds.
func (h *Handle[T]) Progress() (completed, total int) {
	return int(h.completed.Load()), len(h.prog.Rounds)
}

// Stats returns the per-collective round tally so far.
func (h *Handle[T]) Stats() HandleStats {
	return HandleStats{
		Op:         h.prog.Op.String(),
		Rounds:     len(h.prog.Rounds),
		Completed:  h.completed.Load(),
		SelfRouted: h.selfRouted.Load(),
		Fallbacks:  h.fallbacks.Load(),
		CacheHits:  h.cacheHits.Load(),
	}
}

// fail records the first error; later calls are no-ops.
func (h *Handle[T]) fail(err error) {
	h.errOnce.Do(func() { h.err = err })
}

// run executes the schedule and settles the handle.
func (h *Handle[T]) run() {
	h.runParallel()
	s := h.svc
	s.met.EndToEnd.ObserveSince(h.begin)
	h.tr.Span("collective_"+h.prog.Op.String(), h.begin,
		strconv.Itoa(len(h.prog.Rounds))+" rounds")
	s.active.Add(-1)
	switch {
	case h.err == nil:
		s.met.Completed.Add(1)
	case h.ctx.Err() != nil:
		s.met.Cancelled.Add(1)
	default:
		s.met.Failed.Add(1)
	}
	close(h.done)
}

// roundTally batches one worker's round observations so the hot loop
// pays a single atomic add per round (the live progress counter)
// instead of a dozen; everything else is flushed when the worker
// finishes its slice of the schedule.
type roundTally struct {
	rounds      int
	selfRouted  int
	fallbacks   int
	mcastRounds int
	cacheHits   int
	moves       int
	planeRounds []int
	start       time.Time
}

func newRoundTally(planes int) *roundTally {
	return &roundTally{planeRounds: make([]int, planes), start: time.Now()}
}

func (t *roundTally) add(res fabric.RoundResult, moves int) {
	t.rounds++
	switch res.Kind {
	case engine.PlanSelfRouted:
		t.selfRouted++
	case engine.PlanMulticast:
		// Copy-network rounds self-route by construction (every phase
		// routes from local tag comparisons), so they count toward the
		// self-route ratio — and separately, as multicast rounds.
		t.selfRouted++
		t.mcastRounds++
	default:
		t.fallbacks++
	}
	if res.CacheHit {
		t.cacheHits++
	}
	if res.Plane >= 0 && res.Plane < len(t.planeRounds) {
		t.planeRounds[res.Plane]++
	}
	t.moves += moves
}

// flush folds the tally into the handle and service counters and feeds
// the admission EWMA one sample: the worker's mean per-round wall
// time (route + move application — the real service time the next
// deadline check should assume).
func (h *Handle[T]) flush(t *roundTally) {
	if t.rounds == 0 {
		return
	}
	h.selfRouted.Add(int64(t.selfRouted))
	h.fallbacks.Add(int64(t.fallbacks))
	h.cacheHits.Add(int64(t.cacheHits))
	h.svc.observeRounds(t, time.Since(t.start)/time.Duration(t.rounds))
}

// serveRound routes one round on the preferred plane and applies its
// moves from the input into state. Map rounds go through the copy
// network; the rest present their permutation. idx is the round's
// position in the schedule, for the trace span.
func (h *Handle[T]) serveRound(r *Round, idx, prefer int, t *roundTally) error {
	start := time.Now()
	var res fabric.RoundResult
	var err error
	if r.Map != nil {
		res, err = h.svc.fab.RouteMulticastRound(r.Map, prefer)
	} else {
		res, err = h.svc.fab.RouteRound(r.Dest, prefer)
	}
	if err != nil {
		return err
	}
	for _, m := range r.Moves {
		h.state[m.DstPort][m.DstChunk] = h.in[m.SrcPort][m.SrcChunk]
	}
	h.svc.met.Round.ObserveSince(start)
	// Build the note only when traced: untraced rounds allocate nothing
	// for it.
	if h.tr != nil {
		h.tr.Span("round", start, "round "+strconv.Itoa(idx)+" plane "+strconv.Itoa(res.Plane))
	}
	h.completed.Add(1)
	t.add(res, len(r.Moves))
	return nil
}

// runParallel spreads a data-parallel schedule across the fabric's K
// planes: worker w serves rounds w, w+K, w+2K, ... on plane w, one at a
// time, so K rounds traverse the fabric concurrently. Permutation and
// copy-network (map) rounds take the same loop, and each plane's plan
// cache keeps repeated rounds (a broadcast's identical per-chunk rounds,
// re-run all-to-alls) at cache-hit cost. Safe because every program
// reads only the immutable input and writes pairwise-disjoint state
// cells (Program.Validate's invariant).
func (h *Handle[T]) runParallel() {
	rounds := h.prog.Rounds
	workers := h.svc.fab.Planes()
	if workers > len(rounds) {
		workers = len(rounds)
	}
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := newRoundTally(len(h.svc.planeRounds))
			defer h.flush(t)
			for idx := w; idx < len(rounds); idx += workers {
				if abort.Load() {
					return
				}
				if err := h.ctx.Err(); err != nil {
					h.fail(err)
					abort.Store(true)
					return
				}
				if err := h.serveRound(&rounds[idx], idx, w, t); err != nil {
					h.fail(err)
					abort.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
