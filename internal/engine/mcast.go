package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bits"
	"repro/internal/mcast"
)

// ErrEmptyMapping rejects multicast requests with no assigned outputs.
var ErrEmptyMapping = errors.New("engine: multicast mapping assigns no outputs")

// McastResponse reports one served multicast mapping.
type McastResponse[T any] struct {
	// Data is the fanned-out payload: Data[out] holds the element of
	// the source Mapping[out] requested, the zero value on unassigned
	// outputs. Nil when Err is set.
	Data []T
	// CacheHit is true when the copy-network plan came from the LRU.
	CacheHit bool
	Err      error
}

// RouteMulticast serves one fan-out mapping synchronously in the
// caller's goroutine: resolve a copy-network plan (cache first — the
// whole point of keying mappings in the shared LRU is that collective
// rounds repeat them), apply the fan-out to the payload, then verify
// delivery by walking every assigned output backward through the
// three-phase switch program — the multiset check: each output's walk
// must end at exactly the source the mapping requests. Like Route it
// serves under the engine's read lock, so a concurrent Close waits
// until the recorders hold the whole pass.
func (e *Engine[T]) RouteMulticast(m mcast.Mapping, data []T) McastResponse[T] {
	if len(m) != e.net.N() || len(data) != e.net.N() {
		e.met.errors.Add(1)
		return McastResponse[T]{Err: fmt.Errorf("engine: multicast size (map %d, data %d) does not match N=%d",
			len(m), len(data), e.net.N())}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.met.errors.Add(1)
		return McastResponse[T]{Err: ErrClosed}
	}
	copies := m.Assigned()
	if copies == 0 {
		e.met.errors.Add(1)
		return McastResponse[T]{Err: ErrEmptyMapping}
	}
	e.met.mcasts.Add(1)
	pl, hit, err := e.acquireMulticast(hashMapping(m), m)
	if err != nil {
		e.met.errors.Add(1)
		return McastResponse[T]{Err: err}
	}

	t0 := time.Now()
	out := mcast.Apply(pl.Mcast, data, nil)
	e.met.Apply.Observe(time.Since(t0))

	if e.rec != nil {
		e.rec.RecordFlips(pl.distMask)
		e.ladRec.RecordMcastFlips(pl.ladLo, pl.ladHi)
		e.rec.RecordFlips(pl.permMask)
	}
	if err := e.walkMcastOutputs(pl.Mcast, nil); err != nil {
		e.met.errors.Add(1)
		return McastResponse[T]{Err: err}
	}
	e.met.mcastCopies.Add(int64(copies))
	return McastResponse[T]{Data: out, CacheHit: hit}
}

// acquireMulticast resolves the copy-network plan for m, consulting
// the shared LRU first so repeated fan-out patterns skip the two
// looping setups and the ladder compile entirely.
func (e *Engine[T]) acquireMulticast(key uint64, m mcast.Mapping) (*Plan, bool, error) {
	t0 := time.Now()
	defer func() { e.met.Plan.Observe(time.Since(t0)) }()
	if pl := e.cache.getMapping(key, m); pl != nil {
		e.met.hits.Add(1)
		return pl, true, nil
	}
	e.met.misses.Add(1)
	comp := e.mpool.Get().(*mcast.Compiler)
	mp, err := comp.Compile(m)
	distT, copyT := comp.DistTime, comp.CopyTime
	e.mpool.Put(comp)
	if err != nil {
		return nil, false, err
	}
	e.met.McastDist.Observe(distT)
	e.met.McastCopy.Observe(copyT)
	pl := &Plan{Kind: PlanMulticast, Mcast: mp, key: key}
	if e.rec != nil {
		pl.distMask = mp.DistStates.Pack(make([]uint64, e.rec.MaskWords()))
		pl.permMask = mp.PermStates.Pack(make([]uint64, e.rec.MaskWords()))
		pl.ladLo = make([]uint64, e.ladRec.MaskWords())
		pl.ladHi = make([]uint64, e.ladRec.MaskWords())
		e.ladRec.PackMcastStatesInto(mp.Ladder, pl.ladLo, pl.ladHi)
	}
	e.cache.put(pl)
	return pl, false, nil
}

// walkMcastOutputs walks outputs backward through a compiled plan —
// permute B(n), copy ladder, distribute B(n) — verifying each ends at
// the mapping's requested source and accounting traversals when a
// recorder is attached. outs == nil walks every assigned output.
// Because every assigned output is walked to its unique feeding input,
// success proves the delivered output multiset equals the requested
// fan-out multiset exactly.
func (e *Engine[T]) walkMcastOutputs(mp *mcast.Plan, outs []int) error {
	net, rec, ladRec := e.net, e.rec, e.ladRec
	stages, n := net.Stages(), net.LogN()
	walk := func(out int) error {
		src := mp.Map[out]
		if src < 0 {
			return nil
		}
		y := out
		for s := stages - 1; s >= 0; s-- {
			sw := y >> 1
			rec.Traverse(s, sw)
			if mp.PermStates[s][sw] {
				y ^= 1
			}
			if s > 0 {
				y = net.LinkInv(s-1, y)
			}
		}
		for j := n - 1; j >= 0; j-- {
			sw := y >> 1
			ladRec.Traverse(j, sw)
			y = bits.RotRight(mp.Ladder[j][sw].FeedLine(y), n)
		}
		for s := stages - 1; s >= 0; s-- {
			sw := y >> 1
			rec.Traverse(s, sw)
			if mp.DistStates[s][sw] {
				y ^= 1
			}
			if s > 0 {
				y = net.LinkInv(s-1, y)
			}
		}
		if y != src {
			return fmt.Errorf("engine: multicast delivered output %d from input %d, want %d", out, y, src)
		}
		return nil
	}
	if outs == nil {
		for out := range mp.Map {
			if err := walk(out); err != nil {
				return err
			}
		}
		return nil
	}
	for _, out := range outs {
		if err := walk(out); err != nil {
			return err
		}
	}
	return nil
}

// McastFrameServer is FrameServer's sibling for mapping frames: the
// fabric's scheduler builds frames that mix unicast packets with
// multicast head-of-line packets, and the resulting output->source
// assignment is a mapping, not a permutation. Like FrameServer it runs
// in the caller's goroutine, skips the plan cache (completed matchings
// essentially never repeat), reuses one plan's storage across calls,
// and memoizes the one repeat that does happen — a hot flow producing
// the same frame repeatedly.
//
// The two-step Prepare/ServePrepared split separates a property of the
// mapping from a property of the plane: a Prepare error means the
// mapping cannot compile anywhere, a ServePrepared error means this
// plane misdelivered an output.
type McastFrameServer[T any] struct {
	e        *Engine[T]
	comp     *mcast.Compiler
	plan     *mcast.Plan
	distMask []uint64
	permMask []uint64
	ladLo    []uint64
	ladHi    []uint64
	last     mcast.Mapping
	haveLast bool
	prepared bool
}

// NewMcastFrameServer builds a mapping-frame serving context over e
// for one goroutine's exclusive use.
func (e *Engine[T]) NewMcastFrameServer() *McastFrameServer[T] {
	fs := &McastFrameServer[T]{
		e:    e,
		comp: mcast.NewCompiler(e.net),
		plan: mcast.NewPlan(e.net),
		last: make(mcast.Mapping, e.net.N()),
	}
	if words := e.rec.MaskWords(); words > 0 {
		fs.distMask = make([]uint64, words)
		fs.permMask = make([]uint64, words)
	}
	if words := e.ladRec.MaskWords(); words > 0 {
		fs.ladLo = make([]uint64, words)
		fs.ladHi = make([]uint64, words)
	}
	return fs
}

// Prepare compiles the mapping frame's copy-network plan into the
// server's reused storage (memoizing consecutive identical mappings)
// without committing any accounting.
func (fs *McastFrameServer[T]) Prepare(m mcast.Mapping) error {
	e := fs.e
	if len(m) != e.net.N() {
		e.met.errors.Add(1)
		fs.prepared = false
		return fmt.Errorf("engine: mapping frame size %d does not match N=%d", len(m), e.net.N())
	}
	t0 := time.Now()
	if !(fs.haveLast && fs.last.Equal(m)) {
		if err := fs.comp.CompileInto(m, fs.plan); err != nil {
			e.met.errors.Add(1)
			fs.haveLast = false
			fs.prepared = false
			return err
		}
		copy(fs.last, m)
		fs.haveLast = true
		e.met.McastDist.Observe(fs.comp.DistTime)
		e.met.McastCopy.Observe(fs.comp.CopyTime)
		if e.rec != nil {
			fs.plan.DistStates.Pack(fs.distMask)
			fs.plan.PermStates.Pack(fs.permMask)
			e.ladRec.PackMcastStatesInto(fs.plan.Ladder, fs.ladLo, fs.ladHi)
		}
	}
	e.met.Plan.Observe(time.Since(t0))
	fs.prepared = true
	return nil
}

// ServePrepared commits the prepared frame: folds the three phase
// settings into the flight recorder and walks each listed output
// backward through the plan, verifying it is fed by exactly the source
// the mapping assigns — the per-frame output-multiset check.
func (fs *McastFrameServer[T]) ServePrepared(outs []int) error {
	e := fs.e
	if !fs.prepared {
		e.met.errors.Add(1)
		return errors.New("engine: ServePrepared without a successful Prepare")
	}
	t0 := time.Now()
	if e.rec != nil {
		e.rec.RecordFlips(fs.distMask)
		e.ladRec.RecordMcastFlips(fs.ladLo, fs.ladHi)
		e.rec.RecordFlips(fs.permMask)
	}
	err := e.walkMcastOutputs(fs.plan, outs)
	e.met.Apply.Observe(time.Since(t0))
	if err != nil {
		e.met.errors.Add(1)
		return err
	}
	e.met.mcastFrames.Add(1)
	e.met.mcastCopies.Add(int64(len(outs)))
	return nil
}
