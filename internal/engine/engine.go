// Package engine is the serving layer over the self-routing Benes
// network of package core: a concurrent routing engine that accepts
// streams of route requests (permutation + payload vector), batches
// them, and serves them through a sharded worker pool with an LRU plan
// cache keyed by permutation hash.
//
// The paper's headline result is that setup is the expensive part of
// permutation routing: the looping algorithm costs O(N log N) serial
// work, while members of F(n) set the switches themselves in O(log N)
// gate delays. The engine treats that observation as a serving-layer
// design rule:
//
//   - a cache MISS on a self-routable permutation (F(n) membership,
//     Theorem 1) lets the destination tags decide the switch states —
//     the paper's fast path;
//   - a miss outside F(n) falls back to the looping algorithm
//     (core.Setup), the paper's "external setup" mode;
//   - a cache HIT skips setup entirely: the cached plan pins every
//     switch, and the payload traverses the network at wire speed. In
//     software we apply the plan's end-to-end mapping directly
//     (Section IV's point that a configured network moves a new vector
//     every clock period).
//
// Batching follows Section IV's pipelining result: requests that share
// a permutation inside one worker batch are served by a single plan
// acquisition, the software analogue of streaming many vectors through
// one switch setting.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/mcast"
	"repro/internal/netsim"
	"repro/internal/perm"
	"repro/internal/psetup"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("engine: closed")

// Config parameterizes New. The zero value of every field selects a
// sensible default; only LogN is required.
type Config struct {
	// LogN is n = log2(N), the size of the Benes network B(n).
	LogN int
	// Workers is the number of goroutines serving requests.
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// CacheCapacity is the total number of plans the LRU cache holds
	// across all shards. Defaults to DefaultCacheCapacity.
	CacheCapacity int
	// CacheShards is the number of independently locked cache shards,
	// rounded up to a power of two. Defaults to 2*Workers.
	CacheShards int
	// QueueDepth is the buffered request queue length. Submit blocks
	// once this many requests are in flight. Defaults to 4*Workers.
	QueueDepth int
	// MaxBatch caps how many queued requests one worker drains and
	// serves as a single batch. Defaults to DefaultMaxBatch.
	MaxBatch int
	// ParallelSetup routes cache misses outside F(n) — the serving
	// path's worst-case latency, since nothing but the plan cache hides
	// the looping algorithm's O(N log N) serial cost — through the
	// multicore worker-pool setup of internal/psetup. The computed
	// states are bit-identical to core.Network.Setup; if the parallel
	// path ever reports an error the engine falls back to the serial
	// looping algorithm and counts the fallback.
	ParallelSetup bool
	// SetupWorkers bounds one parallel setup's goroutine pool.
	// Defaults to runtime.GOMAXPROCS(0). Ignored unless ParallelSetup.
	SetupWorkers int
	// SetupCutoff is the block size (lines) at or below which the
	// parallel setup recursion goes serial. Defaults to
	// psetup.DefaultSerialCutoff. Ignored unless ParallelSetup.
	SetupCutoff int
	// SetupMemo memoizes each parallel setup's two half-network
	// sub-plans in the engine's sharded LRU (as PlanSubBlock entries
	// sharing its capacity), so permutations that agree on a
	// half-network share recursion subtrees across requests. Ignored
	// unless ParallelSetup.
	SetupMemo bool
	// Recorder, when non-nil, receives gate-level accounting for every
	// served request: per-switch traversals and state flips. A served
	// vector takes the recorder's lock once, compares the plan's packed
	// setting with the last one word by word, and ripple-carries each
	// changed word into the flip bit-planes; a repeated setting is all
	// compares. Nil disables accounting entirely.
	Recorder *netsim.Recorder
	// Journal, when enabled, receives one hash-chained admission record
	// per served request (the permutation plus its delivery digest),
	// making the engine's traffic window replayable by internal/journal.
	// Nil disables journaling: the hot path pays one pointer test and
	// computes nothing.
	Journal *journal.Writer
}

// Defaults for Config fields left zero.
const (
	DefaultCacheCapacity = 1024
	DefaultMaxBatch      = 16
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = DefaultCacheCapacity
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 2 * c.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// Request is one unit of work: deliver Data[i] to position Dest[i].
type Request[T any] struct {
	Dest perm.Perm
	Data []T
}

// Response reports one served request.
type Response[T any] struct {
	// Data is the routed payload: Data[Dest[i]] holds the input element
	// i carried. Nil when Err is set.
	Data []T
	// Kind records which setup path produced the plan.
	Kind PlanKind
	// CacheHit is true when the plan was served from the cache (or
	// reused from an earlier request in the same batch).
	CacheHit bool
	Err      error
}

// pending is a request in flight through the worker pool.
type pending[T any] struct {
	req  Request[T]
	done chan Response[T]
	enq  time.Time
}

// Engine routes streams of permutation requests over a shared Benes
// network. All methods are safe for concurrent use.
type Engine[T any] struct {
	net   *core.Network
	cfg   Config
	cache *planCache
	met   *Metrics
	rec   *netsim.Recorder
	jrn   *journal.Writer
	// psr is the multicore cold-setup router for non-F(n) misses, nil
	// when Config.ParallelSetup is off (serial looping path retained).
	psr *psetup.Router
	// ladRec records the multicast copy ladder: log N stages of N/2
	// four-state switches, a geometry separate from B(n)'s. Nil when
	// accounting is off.
	ladRec *netsim.Recorder
	// mpool holds per-call mcast compilers for the RouteMulticast path.
	mpool sync.Pool
	// scpool holds *core.SetupScratch for cache misses: the self-routing
	// kernel's tag buffers and the serial looping fallback's memory.
	scpool sync.Pool
	reqs   chan *pending[T]
	wg     sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. sends on reqs
	closed bool
}

// New builds and starts an engine for B(cfg.LogN).
func New[T any](cfg Config) (*Engine[T], error) {
	if cfg.LogN < 1 {
		return nil, fmt.Errorf("engine: Config.LogN must be >= 1, got %d", cfg.LogN)
	}
	cfg = cfg.withDefaults()
	met := &Metrics{}
	e := &Engine[T]{
		net:   core.New(cfg.LogN),
		cfg:   cfg,
		cache: newPlanCache(cfg.CacheCapacity, cfg.CacheShards, &met.evictions, &met.collisions),
		met:   met,
		rec:   cfg.Recorder,
		jrn:   cfg.Journal,
		reqs:  make(chan *pending[T], cfg.QueueDepth),
	}
	if e.rec != nil {
		e.ladRec = netsim.NewRecorderGeom(cfg.LogN, e.net.SwitchesPerStage())
	}
	if cfg.ParallelSetup {
		var memo psetup.SubPlanCache
		if cfg.SetupMemo {
			memo = &subPlanCache{c: e.cache, hits: &met.subHits, misses: &met.subMisses}
		}
		e.psr = psetup.New(e.net, psetup.Config{
			Workers:      cfg.SetupWorkers,
			SerialCutoff: cfg.SetupCutoff,
			Memo:         memo,
		})
	}
	e.mpool.New = func() any { return mcast.NewCompiler(e.net) }
	e.scpool.New = func() any { return core.NewSetupScratch(e.net) }
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Network returns the underlying wired network.
func (e *Engine[T]) Network() *core.Network { return e.net }

// Recorder returns the flight recorder the engine records into, nil
// when accounting is disabled.
func (e *Engine[T]) Recorder() *netsim.Recorder { return e.rec }

// LadderRecorder returns the copy-ladder flight recorder (log N stages
// of four-state switches), nil when accounting is disabled.
func (e *Engine[T]) LadderRecorder() *netsim.Recorder { return e.ladRec }

// QueueCapacity returns the request queue's depth limit — the
// denominator readiness probes compare QueueDepth against.
func (e *Engine[T]) QueueCapacity() int { return e.cfg.QueueDepth }

// Metrics returns the engine's live counters.
func (e *Engine[T]) Metrics() *Metrics { return e.met }

// Stats captures a complete metrics snapshot, including the current
// plan-cache occupancy.
func (e *Engine[T]) Stats() Snapshot {
	s := e.met.Snapshot()
	s.PlansCached = e.cache.len()
	return s
}

// Submit enqueues one request and returns a channel that receives
// exactly one Response. Length errors are reported without entering
// the queue; Submit blocks only when the queue is full.
func (e *Engine[T]) Submit(req Request[T]) <-chan Response[T] {
	done := make(chan Response[T], 1)
	if len(req.Dest) != e.net.N() || len(req.Data) != e.net.N() {
		e.met.errors.Add(1)
		done <- Response[T]{Err: fmt.Errorf("engine: request size (dest %d, data %d) does not match N=%d",
			len(req.Dest), len(req.Data), e.net.N())}
		return done
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.met.errors.Add(1)
		done <- Response[T]{Err: ErrClosed}
		return done
	}
	e.met.requests.Add(1)
	e.met.queueDepth.Add(1)
	e.reqs <- &pending[T]{req: req, done: done, enq: time.Now()}
	return done
}

// Route serves one request synchronously.
func (e *Engine[T]) Route(dest perm.Perm, data []T) Response[T] {
	return <-e.Submit(Request[T]{Dest: dest, Data: data})
}

// Prewarm resolves and caches the routing plan for dest without moving
// any payload, so a later Route of the same permutation is a cache
// hit. This is the setup half of Section IV's pipelining: the next
// vector's switch setting is computed while the current vector is
// still in flight. It runs in the caller's goroutine — it does not
// enter the request queue — and reports the plan kind and whether the
// plan was already cached.
func (e *Engine[T]) Prewarm(dest perm.Perm) (PlanKind, bool, error) {
	if len(dest) != e.net.N() {
		e.met.errors.Add(1)
		return 0, false, fmt.Errorf("engine: prewarm size %d does not match N=%d", len(dest), e.net.N())
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		e.met.errors.Add(1)
		return 0, false, ErrClosed
	}
	e.met.prewarms.Add(1)
	pl, hit, err := e.acquire(hashPerm(dest), dest)
	if err != nil {
		e.met.errors.Add(1)
		return 0, false, err
	}
	return pl.Kind, hit, nil
}

// ProbeRoute is the diagnosis oracle hook: it self-routes d through
// the gate-level switch logic — tags decide every state, faults and
// all — and returns the realized permutation, exactly what package
// diagnose's probe contract asks of healthy hardware. It deliberately
// bypasses the serving path twice over:
//
//   - no LRU: probes are one-shot, often adversarial permutations a
//     diagnosis session will never repeat; letting them into the cache
//     would evict hot production plans, and a cached plan would hide
//     the very gate behaviour the probe exists to observe;
//   - no looped fallback: core.Setup computes a setting that realizes
//     d *correctly*, which is the wrong contract — a probe must report
//     what the self-setting switches actually do with d's tags, even
//     (especially) when that misroutes.
//
// It runs in the caller's goroutine and does not enter the request
// queue.
func (e *Engine[T]) ProbeRoute(d perm.Perm) (perm.Perm, error) {
	if len(d) != e.net.N() {
		e.met.errors.Add(1)
		return nil, fmt.Errorf("engine: probe size %d does not match N=%d", len(d), e.net.N())
	}
	if err := d.Validate(); err != nil {
		e.met.errors.Add(1)
		return nil, err
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		e.met.errors.Add(1)
		return nil, ErrClosed
	}
	e.met.probes.Add(1)
	return e.net.SelfRoute(d).Realized, nil
}

// RouteBatch submits all requests before collecting any response, so
// the worker pool serves them concurrently. Responses are returned in
// request order.
func (e *Engine[T]) RouteBatch(reqs []Request[T]) []Response[T] {
	chans := make([]<-chan Response[T], len(reqs))
	for i, r := range reqs {
		chans[i] = e.Submit(r)
	}
	out := make([]Response[T], len(reqs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

// Close stops accepting requests, waits for queued work to drain, and
// stops the workers. Close is idempotent.
func (e *Engine[T]) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.reqs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// worker drains the queue in batches: one blocking receive, then an
// opportunistic non-blocking drain up to MaxBatch, so light load stays
// low-latency while heavy load amortizes plan lookups across a batch.
func (e *Engine[T]) worker() {
	defer e.wg.Done()
	sh := e.rec.Shard() // nil (and inert) when accounting is off
	batch := make([]*pending[T], 0, e.cfg.MaxBatch)
	for {
		p, ok := <-e.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], p)
	drain:
		for len(batch) < e.cfg.MaxBatch {
			select {
			case q, ok := <-e.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		e.serve(batch, sh)
	}
}

// batchPlan is one resolved plan within a batch, shared by every
// request in the batch with the same permutation.
type batchPlan struct {
	dest   perm.Perm
	plan   *Plan
	err    error
	cached bool // plan came from the cache (vs. computed for this batch)
}

// serve resolves plans for a batch and answers every request. Requests
// sharing a permutation are served by one plan acquisition (Section IV
// pipelining: one switch setting, many vectors).
func (e *Engine[T]) serve(batch []*pending[T], sh *netsim.RecorderShard) {
	now := time.Now()
	for _, p := range batch {
		e.met.queueDepth.Add(-1)
		e.met.Wait.Observe(now.Sub(p.enq))
	}
	e.met.batches.Add(1)
	plans := make(map[uint64]*batchPlan, len(batch))
	for _, p := range batch {
		key := hashPerm(p.req.Dest)
		ent := plans[key]
		reused := false
		if ent != nil && ent.dest.Equal(p.req.Dest) {
			// Batch-local reuse: the plan is already in hand, which is
			// a hit as far as setup cost is concerned.
			reused = true
			if ent.err == nil {
				e.met.hits.Add(1)
			}
		} else {
			pl, hit, err := e.acquire(key, p.req.Dest)
			ent = &batchPlan{dest: p.req.Dest, plan: pl, err: err, cached: hit}
			plans[key] = ent
		}
		if ent.err != nil {
			e.met.errors.Add(1)
			p.done <- Response[T]{Err: ent.err}
			continue
		}
		// Apply the plan's end-to-end mapping: the software equivalent of
		// a data pass through pinned switches.
		t0 := time.Now()
		out := perm.Apply(ent.plan.Dest, p.req.Data)
		e.met.Apply.Observe(time.Since(t0))
		// One full-vector pass: a vector count plus a word-compare flip
		// sweep, whose changed words ripple into the flip bit-planes.
		sh.RecordVector(ent.plan.mask)
		if e.jrn.Enabled() {
			// The plan realizes exactly its permutation, so the delivery
			// digest is DigestPerm of the destination vector.
			e.jrn.Route(ent.plan.Dest, journal.DigestPerm(ent.plan.Dest))
		}
		p.done <- Response[T]{Data: out, Kind: ent.plan.Kind, CacheHit: ent.cached || reused}
	}
}

// acquire returns the plan for d, consulting the cache first. On a
// miss it allocates the plan's States once and runs the self-routing
// kernel into them (valid for F(n) members); at the kernel's first
// conflict it sets up the same States with the looping algorithm
// instead, then caches the result.
func (e *Engine[T]) acquire(key uint64, d perm.Perm) (*Plan, bool, error) {
	t0 := time.Now()
	defer func() { e.met.Plan.Observe(time.Since(t0)) }()
	if pl := e.cache.get(key, d); pl != nil {
		e.met.hits.Add(1)
		return pl, true, nil
	}
	if err := d.Validate(); err != nil {
		return nil, false, err
	}
	e.met.misses.Add(1)
	pl := &Plan{Kind: PlanSelfRouted, States: e.net.NewStates(), Dest: d.Clone(), key: key}
	sc := e.scpool.Get().(*core.SetupScratch)
	if !e.net.SelfRouteInto(d, pl.States, sc) {
		e.met.fallbacks.Add(1)
		pl.Kind = e.coldSetup(d, pl.States, sc)
	}
	e.scpool.Put(sc)
	// Pack the setting once at plan-build time so recording a cached
	// pass is a word sweep, not a boolean matrix walk.
	pl.mask = e.rec.PackStates(pl.States)
	e.cache.put(pl)
	return pl, false, nil
}

// coldSetup writes into st the states of a validated non-F(n)
// permutation — the external-setup cliff the plan cache cannot hide on
// first sight of d. With ParallelSetup on it runs the worker-pool
// looping recursion (states bit-identical to the serial algorithm,
// enforced by the psetup differential battery); the serial path, on
// the caller's scratch, remains both the default and the fallback
// should the parallel router report an error.
func (e *Engine[T]) coldSetup(d perm.Perm, st core.States, sc *core.SetupScratch) PlanKind {
	if e.psr == nil {
		e.net.SetupInto(d, st, sc)
		return PlanLooped
	}
	t0 := time.Now()
	defer func() { e.met.SetupPar.Observe(time.Since(t0)) }()
	if err := e.psr.SetupInto(d, st); err != nil {
		// d was validated by acquire, so this is unreachable in
		// practice; keep the serial algorithm as the safety net anyway.
		e.met.parFallbacks.Add(1)
		e.net.SetupInto(d, st, sc)
		return PlanLooped
	}
	e.met.parSetups.Add(1)
	return PlanParallel
}
