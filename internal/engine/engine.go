// Package engine is the serving layer over the self-routing Benes
// network of package core: a concurrent routing engine that serves
// route requests (permutation + payload vector) in the caller's
// goroutine through a sharded LRU plan cache keyed by permutation
// hash.
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
//     (core.Network.SetupInto), the paper's "external setup" mode;
//   - a cache HIT skips setup entirely: the cached plan pins every
//     switch, and the payload traverses the network at wire speed. In
//     software we apply the plan's end-to-end mapping directly
//     (Section IV's point that a configured network moves a new vector
//     every clock period).
//
// Section IV's pipelining result — the next vector's switch setting is
// ready while the current vector moves — is the plan cache's job:
// requests that share a permutation are served by one cached plan, the
// software analogue of streaming many vectors through one switch
// setting, so a repeated permutation or mapping pays its setup once.
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
)

// ErrClosed is returned for requests made after Close.
var ErrClosed = errors.New("engine: closed")

// Config parameterizes New. The zero value of every field selects a
// sensible default; only LogN is required.
type Config struct {
	// LogN is n = log2(N), the size of the Benes network B(n).
	LogN int
	// CacheCapacity is the total number of plans the LRU cache holds
	// across all shards. Defaults to DefaultCacheCapacity.
	CacheCapacity int
	// CacheShards is the number of independently locked cache shards,
	// rounded up to a power of two. Defaults to 2*GOMAXPROCS, so
	// concurrent callers rarely contend on one shard's lock.
	CacheShards int
	// ParallelSetup and SetupMemo are ignored: every miss outside F(n)
	// runs the serial looping algorithm (core.Network.SetupInto) on the
	// pooled miss scratch. They stay in Config for callers outside this
	// module.
	ParallelSetup bool
	SetupMemo     bool
	// Recorder, when non-nil, receives gate-level accounting for every
	// served request: per-switch traversals and state flips. A served
	// vector takes the recorder's lock once, compares the plan's setting
	// (which the cache keeps packed in the recorder's word layout, with
	// or without a recorder) with the last one word by word, and
	// ripple-carries each changed word into the flip bit-planes; a
	// repeated setting is all compares. Nil disables accounting
	// entirely.
	Recorder *netsim.Recorder
	// Journal, when enabled, receives one hash-chained admission record
	// per served request (the permutation plus its delivery digest),
	// making the engine's traffic window replayable by internal/journal.
	// Nil disables journaling: the hot path pays one pointer test and
	// computes nothing.
	Journal *journal.Writer
}

// DefaultCacheCapacity is the plan-cache capacity when Config leaves
// it zero.
const DefaultCacheCapacity = 1024

func (c Config) withDefaults() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = DefaultCacheCapacity
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 2 * runtime.GOMAXPROCS(0)
	}
	return c
}

// Response reports one served request.
type Response[T any] struct {
	// Data is the routed payload: Data[Dest[i]] holds the input element
	// i carried. Nil when Err is set or the request carried no payload.
	Data []T
	// Kind records which setup path produced the plan.
	Kind PlanKind
	// CacheHit is true when the plan was served from the cache.
	CacheHit bool
	Err      error
}

// Engine routes permutation requests over a shared Benes network. All
// methods are safe for concurrent use.
type Engine[T any] struct {
	net   *core.Network
	cache *planCache
	met   *metrics
	rec   *netsim.Recorder
	jrn   *journal.Writer
	// ladRec records the multicast copy ladder: log N stages of N/2
	// four-state switches, a geometry separate from B(n)'s. Nil when
	// accounting is off.
	ladRec *netsim.Recorder
	// mpool holds per-call mcast compilers for the RouteMulticast path.
	mpool sync.Pool
	// scpool holds the *core.SetupScratch of cache misses: the
	// self-routing kernel's tag buffers and the looping fallback's
	// memory. Both kernels write straight into the plan's words.
	scpool sync.Pool

	// mu guards closed. Route and RouteMulticast hold the read side
	// for their whole serve, so Close, which takes the write side,
	// returns only after every in-flight route has been recorded and
	// journaled.
	mu     sync.RWMutex
	closed bool
}

// New builds an engine for B(cfg.LogN).
func New[T any](cfg Config) (*Engine[T], error) {
	if cfg.LogN < 1 {
		return nil, fmt.Errorf("engine: Config.LogN must be >= 1, got %d", cfg.LogN)
	}
	cfg = cfg.withDefaults()
	met := &metrics{}
	e := &Engine[T]{
		net:   core.New(cfg.LogN),
		cache: newPlanCache(cfg.CacheCapacity, cfg.CacheShards, &met.Evictions, &met.Collisions),
		met:   met,
		rec:   cfg.Recorder,
		jrn:   cfg.Journal,
	}
	if e.rec != nil {
		e.ladRec = netsim.NewRecorderGeom(cfg.LogN, e.net.SwitchesPerStage())
	}
	e.mpool.New = func() any { return mcast.NewCompiler(e.net) }
	e.scpool.New = func() any { return core.NewSetupScratch(e.net) }
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

// Route serves one request synchronously in the caller's goroutine:
// deliver data[i] to position dest[i]. It resolves the plan (cache
// first), applies the plan's end-to-end mapping to the payload — the
// software equivalent of a data pass through pinned switches — records
// the pass and journals it, all under the engine's read lock, so a
// concurrent Close waits for it to finish.
//
// A nil data asks for the switch setting alone: the plan is resolved,
// recorded and journaled exactly as with a payload, the apply is
// skipped and Response.Data is nil. Collective rounds route this way,
// because their layer moves the chunks itself. A non-nil data must
// hold N elements.
//
// Route is RouteInto with a fresh output slice.
func (e *Engine[T]) Route(dest perm.Perm, data []T) Response[T] {
	return e.RouteInto(dest, data, nil)
}

// RouteInto is Route writing the routed payload into out, so a caller
// that reuses out allocates nothing per request on a cache hit.
// Response.Data is out (nil, as with Route, when data is nil). A nil
// out asks for a fresh slice; a non-nil out must hold N elements and
// share no memory with data (perm.ApplyInto panics on a wrong length),
// and is left as it was when the request fails. The engine keeps no
// reference to dest, data or out after RouteInto returns: a plan and a
// journal record hold copies.
func (e *Engine[T]) RouteInto(dest perm.Perm, data, out []T) Response[T] {
	if len(dest) != e.net.N() || (data != nil && len(data) != e.net.N()) {
		e.met.Errors.Add(1)
		return Response[T]{Err: fmt.Errorf("engine: request size (dest %d, data %d) does not match N=%d",
			len(dest), len(data), e.net.N())}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.met.Errors.Add(1)
		return Response[T]{Err: ErrClosed}
	}
	e.met.Requests.Add(1)
	pl, hit, err := e.acquire(hashPerm(dest), dest)
	if err != nil {
		e.met.Errors.Add(1)
		return Response[T]{Err: err}
	}
	// From here on dest is the plan's permutation: a hit compared the
	// two in full, and a miss validated dest and built the plan from it.
	if data == nil {
		out = nil
	} else {
		t0 := time.Now()
		if out == nil {
			out = make([]T, len(data))
		}
		perm.ApplyInto(dest, data, out)
		e.met.Apply.Observe(time.Since(t0))
	}
	// One full-vector pass: a vector count plus a word-compare flip
	// sweep, whose changed words ripple into the flip bit-planes.
	e.rec.RecordVector(pl.setting)
	if e.jrn.Enabled() {
		// The plan realizes exactly its permutation, so the delivery
		// digest is DigestPerm of the destination vector.
		e.jrn.Route(dest, journal.DigestPerm(dest))
	}
	return Response[T]{Data: out, Kind: pl.Kind, CacheHit: hit}
}

// ProbeRoute is the diagnosis oracle hook: it self-routes d through
// the gate-level switch logic with the listed switches stuck — tags
// decide every other state — records each fault hit (core.HitRecorder)
// into the engine's recorder, and returns the realized permutation,
// exactly what package diagnose's probe contract asks of the hardware.
// Faults out of range are errors. It deliberately bypasses the serving
// path twice over:
//
//   - no LRU: probes are one-shot, often adversarial permutations a
//     diagnosis session will never repeat; letting them into the cache
//     would evict hot production plans, and a cached plan would hide
//     the very gate behaviour the probe exists to observe;
//   - no looped fallback: core.Setup computes a setting that realizes
//     d *correctly*, which is the wrong contract — a probe must report
//     what the self-setting switches actually do with d's tags, even
//     (especially) when that misroutes.
func (e *Engine[T]) ProbeRoute(d perm.Perm, faults []core.Fault) (perm.Perm, error) {
	if len(d) != e.net.N() {
		e.met.Errors.Add(1)
		return nil, fmt.Errorf("engine: probe size %d does not match N=%d", len(d), e.net.N())
	}
	if err := d.Validate(); err != nil {
		e.met.Errors.Add(1)
		return nil, err
	}
	for _, f := range faults {
		if err := e.net.CheckFault(f); err != nil {
			e.met.Errors.Add(1)
			return nil, err
		}
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		e.met.Errors.Add(1)
		return nil, ErrClosed
	}
	e.met.Probes.Add(1)
	return e.net.NewFaultRouter().Realized(d, faults, e.rec, nil), nil
}

// Close stops accepting requests and returns once every in-flight
// Route and RouteMulticast has finished. Close is idempotent.
func (e *Engine[T]) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// acquire returns the plan for d, consulting the cache first. On a
// miss it writes the plan's setting with core.Network.SettingInto on
// pooled scratch: the self-routing kernel's for an F(n) member, the
// looping algorithm's from the kernel's first conflict. The plan holds
// those N log N − N/2 bits and d at value width, and is cached.
func (e *Engine[T]) acquire(key uint64, d perm.Perm) (*Plan, bool, error) {
	t0 := time.Now()
	defer func() { e.met.Plan.Observe(time.Since(t0)) }()
	if pl := e.cache.get(key, d); pl != nil {
		e.met.Hits.Add(1)
		return pl, true, nil
	}
	if err := d.Validate(); err != nil {
		return nil, false, err
	}
	e.met.Misses.Add(1)
	pl := &Plan{Kind: PlanSelfRouted, dest: packVec(d, 0), key: key}
	pl.setting = make([]uint64, e.net.Stages()*e.net.StageWords())
	sc := e.scpool.Get().(*core.SetupScratch)
	if !e.net.SettingInto(d, pl.setting, sc) {
		e.met.Fallbacks.Add(1)
		pl.Kind = PlanLooped
	}
	e.scpool.Put(sc)
	e.cache.put(pl)
	return pl, false, nil
}
