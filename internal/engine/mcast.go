package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mcast"
)

// ErrEmptyMapping rejects multicast requests with no assigned outputs.
var ErrEmptyMapping = errors.New("engine: multicast mapping assigns no outputs")

// McastResponse reports one served multicast mapping.
type McastResponse[T any] struct {
	// Data is the fanned-out payload: Data[out] holds the element of
	// the source Mapping[out] requested, the zero value on unassigned
	// outputs. Nil when Err is set or the request carried no payload.
	Data []T
	// CacheHit is true when the copy-network plan came from the LRU.
	CacheHit bool
	Err      error
}

// RouteMulticast serves one fan-out mapping synchronously in the
// caller's goroutine: resolve a copy-network plan (cache first — the
// whole point of keying mappings in the shared LRU is that collective
// rounds repeat them), apply the fan-out to the payload, then serve
// the plan: record its three phases and verify delivery by walking
// every assigned output backward through the packed switch words. Like
// Route it serves under the engine's read lock, so a concurrent Close
// waits until the recorders hold the whole pass.
//
// As with Route, a nil data skips the apply alone: the plan is
// resolved, recorded, walked and verified exactly as with a payload,
// and McastResponse.Data is nil. A non-nil data must hold N elements.
func (e *Engine[T]) RouteMulticast(m mcast.Mapping, data []T) McastResponse[T] {
	if len(m) != e.net.N() || (data != nil && len(data) != e.net.N()) {
		e.met.Errors.Add(1)
		return McastResponse[T]{Err: fmt.Errorf("engine: multicast size (map %d, data %d) does not match N=%d",
			len(m), len(data), e.net.N())}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.met.Errors.Add(1)
		return McastResponse[T]{Err: ErrClosed}
	}
	if m.Assigned() == 0 {
		e.met.Errors.Add(1)
		return McastResponse[T]{Err: ErrEmptyMapping}
	}
	e.met.Mcasts.Add(1)
	pl, hit, err := e.acquireMulticast(hashMapping(m), m)
	if err != nil {
		e.met.Errors.Add(1)
		return McastResponse[T]{Err: err}
	}
	// From here on m is the plan's mapping: a hit compared the two in
	// full, and a miss compiled the plan from m.
	var out []T
	if data != nil {
		t0 := time.Now()
		out = mcast.Apply(m, data, nil)
		e.met.Apply.Observe(time.Since(t0))
	}
	if err := e.serveMcast(pl.setting, m, nil); err != nil {
		e.met.Errors.Add(1)
		return McastResponse[T]{Err: err}
	}
	return McastResponse[T]{Data: out, CacheHit: hit}
}

// acquireMulticast resolves the copy-network plan for m, consulting
// the shared LRU first so repeated fan-out patterns skip the two
// looping setups and the ladder compile entirely. A miss keeps only
// the packed switch words and the packed mapping.
func (e *Engine[T]) acquireMulticast(key uint64, m mcast.Mapping) (*Plan, bool, error) {
	t0 := time.Now()
	defer func() { e.met.Plan.Observe(time.Since(t0)) }()
	if pl := e.cache.getMapping(key, m); pl != nil {
		e.met.Hits.Add(1)
		return pl, true, nil
	}
	e.met.Misses.Add(1)
	words := make([]uint64, mcast.PackedLen(e.net))
	comp := e.mpool.Get().(*mcast.Compiler)
	err := e.compileMcast(comp, m, words)
	e.mpool.Put(comp)
	if err != nil {
		return nil, false, err
	}
	pl := &Plan{Kind: PlanMulticast, setting: words, dest: packVec(m, 1), key: key}
	e.cache.put(pl)
	return pl, false, nil
}

// compileMcast compiles m with comp and packs the plan into words,
// observing the distribute and copy phase histograms.
func (e *Engine[T]) compileMcast(comp *mcast.Compiler, m mcast.Mapping, words []uint64) error {
	if err := comp.CompilePacked(m, words); err != nil {
		return err
	}
	e.met.McastDist.Observe(comp.DistTime)
	e.met.McastCopy.Observe(comp.CopyTime)
	return nil
}

// walkBatch is how many outputs serveMcast walks at once: enough for
// the walks' loads to overlap, few enough for two stack arrays.
const walkBatch = 64

// serveMcast commits one pass of the packed copy-network plan words
// for mapping m: it records the three phases' flips, walks each
// assigned output in outs (every assigned output when outs is nil)
// back through the plan, checking that the source m assigns it feeds
// it, and counts the walked outputs as copies. A failed walk returns
// before any copy is counted.
func (e *Engine[T]) serveMcast(words []uint64, m mcast.Mapping, outs []int) error {
	if e.rec != nil {
		dist, perm, lo, hi := mcast.Phases(e.net, words)
		e.rec.RecordFlips(dist)
		e.ladRec.RecordMcastFlips(lo, hi)
		e.rec.RecordFlips(perm)
	}
	end := len(outs)
	if outs == nil {
		end = len(m)
	}
	var outBuf, srcBuf [walkBatch]int
	copies := 0
	for next := 0; next < end; {
		batch := outBuf[:0]
		for ; next < end && len(batch) < walkBatch; next++ {
			out := next
			if outs != nil {
				out = outs[next]
			}
			if m[out] >= 0 {
				batch = append(batch, out)
			}
		}
		srcs := srcBuf[:len(batch)]
		mcast.Walk(e.net, words, batch, srcs, e.rec, e.ladRec)
		for k, out := range batch {
			if srcs[k] != m[out] {
				return fmt.Errorf("engine: multicast delivered output %d from input %d, want %d",
					out, srcs[k], m[out])
			}
		}
		copies += len(batch)
	}
	e.met.McastCopies.Add(int64(copies))
	return nil
}

// McastFrameServer is FrameServer's sibling for mapping frames: the
// fabric's scheduler builds frames that mix unicast packets with
// multicast head-of-line packets, and the resulting output->source
// assignment is a mapping, not a permutation. Like FrameServer it runs
// in the caller's goroutine, skips the plan cache (completed matchings
// essentially never repeat), reuses one compiler and one packed plan
// across calls, and memoizes the one repeat that does happen — a hot
// flow producing the same frame repeatedly.
//
// The two-step Prepare/ServePrepared split separates a property of the
// mapping from a property of the plane: a Prepare error means the
// mapping cannot compile anywhere, a ServePrepared error means this
// plane misdelivered an output.
type McastFrameServer[T any] struct {
	e        *Engine[T]
	comp     *mcast.Compiler
	words    []uint64      // the prepared plan, packed
	last     mcast.Mapping // the mapping words realizes; valid when prepared
	prepared bool          // the last Prepare succeeded
}

// NewMcastFrameServer builds a mapping-frame serving context over e
// for one goroutine's exclusive use.
func (e *Engine[T]) NewMcastFrameServer() *McastFrameServer[T] {
	return &McastFrameServer[T]{
		e:     e,
		comp:  mcast.NewCompiler(e.net),
		words: make([]uint64, mcast.PackedLen(e.net)),
		last:  make(mcast.Mapping, e.net.N()),
	}
}

// Prepare compiles the mapping frame's copy-network plan into the
// server's packed plan (memoizing consecutive identical mappings)
// without committing any accounting.
func (fs *McastFrameServer[T]) Prepare(m mcast.Mapping) error {
	e := fs.e
	if len(m) != e.net.N() {
		e.met.Errors.Add(1)
		fs.prepared = false
		return fmt.Errorf("engine: mapping frame size %d does not match N=%d", len(m), e.net.N())
	}
	t0 := time.Now()
	if !(fs.prepared && fs.last.Equal(m)) {
		if err := e.compileMcast(fs.comp, m, fs.words); err != nil {
			e.met.Errors.Add(1)
			fs.prepared = false
			return err
		}
		copy(fs.last, m)
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
		e.met.Errors.Add(1)
		return errors.New("engine: ServePrepared without a successful Prepare")
	}
	t0 := time.Now()
	err := e.serveMcast(fs.words, fs.last, outs)
	e.met.Apply.Observe(time.Since(t0))
	if err != nil {
		e.met.Errors.Add(1)
		return err
	}
	e.met.McastFrames.Add(1)
	return nil
}
