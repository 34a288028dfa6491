package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/perm"
	"repro/internal/psetup"
)

// This file is the in-process pass: the workload's seeded inputs served
// by an engine, fabric, collective service and journal built in this
// process with benesd's default configuration, once untraced and once
// with spans around every call into those packages.

// system is the in-process counterpart of one benesd process.
type system struct {
	eng *engine.Engine[int]
	fab *fabric.Fabric[int]
	col *collective.Service[int]
	jrn *journal.Journal
	// ident is the identity payload benesd substitutes for an omitted
	// /route "data".
	ident []int

	base      time.Time
	delivered atomic.Int64
	nextPkt   atomic.Int64
	// sentNs[id] is when packet id entered Send and latNs[id] its
	// Send-to-deliver time; both nil when the pass is untraced.
	sentNs, latNs []int64
}

// newSystem mirrors benesd's main: flight recorders on, parallel setup
// with sub-plan memo, tail-drop VOQs of the default depth, flow-hash
// affinity, an in-memory journal when the workload enables it, and a
// per-packet deliver callback.
func newSystem(w *workload, journalOn bool, tracedPkts int) (*system, error) {
	s := &system{ident: make([]int, 1<<uint(w.logN)), base: time.Now()}
	for i := range s.ident {
		s.ident[i] = i
	}
	if tracedPkts > 0 {
		s.sentNs, s.latNs = make([]int64, tracedPkts), make([]int64, tracedPkts)
	}
	var jw *journal.Writer
	if journalOn {
		j, err := journal.New(journal.Config{})
		if err != nil {
			return nil, err
		}
		s.jrn, jw = j, j.Writer()
	}
	rec := netsim.NewRecorder(core.New(w.logN), runtime.GOMAXPROCS(0)+1)
	eng, err := engine.New[int](engine.Config{
		LogN:          w.logN,
		CacheCapacity: engine.DefaultCacheCapacity,
		ParallelSetup: true,
		SetupMemo:     true,
		Recorder:      rec,
		Journal:       jw,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.fab, err = fabric.New[int](fabric.Config{
		LogN:          w.logN,
		Planes:        w.planes,
		VOQDepth:      fabric.DefaultVOQDepth,
		Policy:        fabric.DropNew,
		Affinity:      fabric.FlowHash,
		ParallelSetup: true,
		Record:        true,
		Journal:       jw,
	}, s.deliver)
	if err != nil {
		eng.Close()
		return nil, err
	}
	if s.jrn != nil {
		s.jrn.SetCheckpointSource(func() journal.Checkpoint {
			cp := s.fab.JournalCheckpoint()
			st := s.eng.Stats()
			cp.EngineRequests = uint64(st.Requests)
			cp.EngineHits = uint64(st.Hits)
			cp.EngineMisses = uint64(st.Misses)
			return cp
		})
	}
	s.col = collective.New[int](s.fab, collective.Options{})
	return s, nil
}

func (s *system) deliver(p fabric.Packet[int]) {
	if s.latNs != nil {
		s.latNs[p.Payload] = s.clock() - s.sentNs[p.Payload]
	}
	s.delivered.Add(1)
}

func (s *system) clock() int64 { return int64(time.Since(s.base)) }

func (s *system) close() {
	s.fab.Close()
	s.eng.Close()
	if s.jrn != nil {
		s.jrn.Close()
	}
}

// exec serves one op. The op's root span (and its returned duration)
// covers only the calls into the system; the answer is checked after
// it closes. tr is nil in an untraced pass.
func (s *system) exec(o *op, tr *tracer, id int32) (int64, error) {
	var root int32 = -1
	start := s.clock()
	if tr != nil {
		root = tr.add(id, spanOp, -1, start, 0)
	}
	// child times one call: it ends the span that began at t and
	// returns the end, which begins the next call's span.
	child := func(name spanName, t int64) int64 {
		if tr == nil {
			return 0
		}
		now := s.clock()
		tr.add(id, name, root, t, now)
		return now
	}
	var (
		route engine.Response[int]
		mres  fabric.RoundResult
		mcls  perm.MappingClassification
		rows  [][]int
		err   error
	)
	switch o.kind {
	case kindRoute:
		route = s.eng.Route(o.dest, s.ident)
		child(spanEngineRoute, start)
		err = route.Err
	case kindSend:
		t := start
		for k := 0; k < len(o.pkts) && err == nil; k += 2 {
			pid := int(s.nextPkt.Add(1) - 1)
			if s.sentNs != nil {
				if tr == nil {
					t = s.clock()
				}
				s.sentNs[pid] = t
			}
			err = s.fab.Send(fabric.Packet[int]{Src: o.pkts[k], Dst: o.pkts[k+1], Payload: pid})
			t = child(spanFabricSend, t)
		}
	case kindMulticast:
		mcls = perm.ClassifyMapping(o.mapping)
		t := child(spanClassifyMapping, start)
		mres, err = s.fab.RouteMulticastRound(o.mapping, 0)
		child(spanMcastRound, t)
	default:
		var h *collective.Handle[int]
		name := spanAllToAll
		if o.kind == kindAllToAll {
			h, err = s.col.AllToAll(context.Background(), o.data)
		} else {
			name = spanBroadcast
			h, err = s.col.Broadcast(context.Background(), o.root, o.data)
		}
		t := child(name, start)
		if err == nil {
			rows, err = h.Wait()
			child(spanWait, t)
		}
	}
	end := s.clock()
	if tr != nil {
		tr.spans[root].end = end
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.kind, err)
	}
	switch o.kind {
	case kindRoute:
		if (route.Kind == engine.PlanSelfRouted) != o.selfRoutes || route.CacheHit != o.hit {
			err = fmt.Errorf("kind %v cache hit %v, want self-routed %v hit %v", route.Kind, route.CacheHit, o.selfRoutes, o.hit)
		} else {
			err = equalInts(route.Data, o.inv)
		}
	case kindMulticast:
		if mcls.Class != o.mcls.Class || mcls.Assigned != o.mcls.Assigned || mres.Kind != engine.PlanMulticast {
			err = fmt.Errorf("class %v assigned %d kind %v, want %v %d", mcls.Class, mcls.Assigned, mres.Kind, o.mcls.Class, o.mcls.Assigned)
		}
	case kindAllToAll, kindBroadcast:
		err = equalRows(rows, o.want)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.kind, err)
	}
	return end - start, nil
}

// pass is one in-process run over fixed inputs on a fresh system.
type pass struct {
	wall     time.Duration // first op start to last op end
	opNs     []float64
	ops      int
	routeOps int
	mallocs  uint64
	gcFrac   float64
	drain    time.Duration // last op end until every accepted packet is delivered
	eng      engine.Snapshot
	fab      fabric.Snapshot
	col      collective.Stats
	jrnRecs  int64
	jrnBytes int64
	jrnDrops int64
	tracers  []*tracer // nil when untraced
	deliver  []float64 // Send-to-deliver µs per packet, traced only
	// engineAllocs is heap objects per Engine.Route over extra, traced
	// only.
	engineAllocs float64
}

// runPass builds a fresh system, completes the workload's setup on it,
// then serves inputs[g] from goroutine g. A traced pass records spans,
// then times the calls of microCalls on the same system before closing
// it.
func runPass(w *workload, setup, extra []*op, inputs [][]*op, journalOn, traced bool) (*pass, error) {
	setupPkts, pkts := 0, 0
	for _, o := range setup {
		setupPkts += len(o.pkts) / 2
	}
	for _, in := range inputs {
		for _, o := range in {
			pkts += len(o.pkts) / 2
		}
	}
	tracedPkts := 0
	if traced {
		tracedPkts = setupPkts + pkts
	}
	sys, err := newSystem(w, journalOn, tracedPkts)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	for _, o := range setup {
		if _, err := sys.exec(o, nil, -1); err != nil {
			return nil, fmt.Errorf("in-process setup: %w", err)
		}
	}

	p := &pass{}
	eng0, fab0, col0 := sys.eng.Stats(), sys.fab.Stats(), sys.col.Stats()
	var jm0 [3]int64
	if sys.jrn != nil {
		m := sys.jrn.Metrics()
		jm0 = [3]int64{m.Appended(), m.Bytes(), m.Dropped()}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPUClasses()

	errs := make([]error, len(inputs))
	durs := make([][]float64, len(inputs))
	if traced {
		p.tracers = make([]*tracer, len(inputs))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g, in := range inputs {
		var tr *tracer
		if traced {
			tr = newTracer(sys.base, 8*len(in))
			p.tracers[g] = tr
		}
		wg.Add(1)
		go func(g int, in []*op, tr *tracer) {
			defer wg.Done()
			durs[g] = make([]float64, 0, len(in))
			for k, o := range in {
				d, err := sys.exec(o, tr, int32(k))
				if err != nil {
					errs[g] = fmt.Errorf("in-process op %d of stream %d: %w", k, g, err)
					return
				}
				durs[g] = append(durs[g], float64(d))
			}
		}(g, in, tr)
	}
	wg.Wait()
	p.wall = time.Since(start)
	cpu1 := readCPUClasses()
	runtime.ReadMemStats(&ms1)
	for g := range inputs {
		if errs[g] != nil {
			return nil, errs[g]
		}
		p.opNs = append(p.opNs, durs[g]...)
		for _, o := range inputs[g] {
			if o.kind == kindRoute {
				p.routeOps++
			}
		}
	}
	p.ops = len(p.opNs)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcFrac = ratio(cpu1[0]-cpu0[0], cpu1[1]-cpu0[1])

	// Drain: every packet admitted, setup's included, must be delivered.
	accepted := sys.fab.Stats().Accepted
	for deadline := time.Now().Add(60 * time.Second); sys.delivered.Load() < accepted; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("in-process fabric did not drain: %d of %d delivered", sys.delivered.Load(), accepted)
		}
		time.Sleep(50 * time.Microsecond)
	}
	p.drain = time.Since(start) - p.wall

	eng1, fab1, col1 := sys.eng.Stats(), sys.fab.Stats(), sys.col.Stats()
	if err := checkBooks(fabricBooks{fab1.Accepted, fab1.Rejected, fab1.Delivered, fab1.Lost}); err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	p.eng = engineDelta(eng0, eng1)
	p.fab = fabric.Snapshot{
		Accepted:  fab1.Accepted - fab0.Accepted,
		Rejected:  fab1.Rejected - fab0.Rejected,
		Delivered: fab1.Delivered - fab0.Delivered,
		Frames:    fab1.Frames - fab0.Frames,
	}
	p.col = collective.Stats{
		Rounds:         col1.Rounds - col0.Rounds,
		SelfRouted:     col1.SelfRouted - col0.SelfRouted,
		RoundCacheHits: col1.RoundCacheHits - col0.RoundCacheHits,
	}
	if sys.jrn != nil {
		m := sys.jrn.Metrics()
		p.jrnRecs, p.jrnBytes, p.jrnDrops = m.Appended()-jm0[0], m.Bytes()-jm0[1], m.Dropped()-jm0[2]
		oldest, newest, _ := sys.jrn.Bounds()
		if err := checkJournal(journalVerdictOf(sys.jrn.Verify(oldest, newest))); err != nil {
			return nil, fmt.Errorf("in-process: %w", err)
		}
	}
	if traced {
		// Setup sends first, alone, so its packets hold the lowest ids.
		for _, l := range sys.latNs[setupPkts:] {
			p.deliver = append(p.deliver, float64(l)/1e3)
		}
		tr := newTracer(sys.base, 1024)
		if p.engineAllocs, err = sys.microCalls(w, inputs, extra, tr); err != nil {
			return nil, err
		}
		p.tracers = append(p.tracers, tr)
	}
	return p, nil
}

func engineDelta(a, b engine.Snapshot) engine.Snapshot {
	return engine.Snapshot{
		Requests:  b.Requests - a.Requests,
		Hits:      b.Hits - a.Hits,
		Misses:    b.Misses - a.Misses,
		Fallbacks: b.Fallbacks - a.Fallbacks,
		Evictions: b.Evictions - a.Evictions,
	}
}

func journalVerdictOf(v journal.VerifyResult) journalVerdict {
	return journalVerdict{OK: v.OK, Records: v.Records, Detail: v.Detail}
}

// readCPUClasses returns the runtime's cumulative GC CPU and total CPU
// estimates, in seconds.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// microCalls times the layer calls the ops make only inside the
// engine or fabric, on the pass's own inputs: looping setup (serial and
// parallel) on the looping-only permutations, self-routing on the F(n)
// ones and fabric rounds on alltoall's round permutations. It returns
// the heap objects allocated per Engine.Route over extra, route ops
// drawn past the pass.
func (sys *system) microCalls(w *workload, inputs [][]*op, extra []*op, tr *tracer) (float64, error) {
	net := core.New(w.logN)
	psr := psetup.New(net, psetup.Config{})
	var looping, selfRouting int
	for _, in := range inputs {
		for _, o := range in {
			if o.kind != kindRoute {
				continue
			}
			if !o.selfRoutes && looping < 64 {
				looping++
				t0 := sys.clock()
				net.Setup(o.dest)
				t1 := sys.clock()
				tr.add(-1, spanCoreSetup, -1, t0, t1)
				if _, err := psr.Setup(o.dest); err != nil {
					return 0, fmt.Errorf("psetup: %w", err)
				}
				tr.add(-1, spanPsetupSetup, -1, t1, sys.clock())
			}
			if o.selfRoutes && selfRouting < 64 {
				selfRouting++
				t0 := sys.clock()
				res := net.SelfRoute(o.dest)
				tr.add(-1, spanSelfRoute, -1, t0, sys.clock())
				if !res.OK() {
					return 0, fmt.Errorf("self-routing misrouted an F(n) input")
				}
			}
		}
	}
	if hasKind(inputs, kindAllToAll) {
		N := 1 << uint(w.logN)
		for rep := 0; rep < 4; rep++ {
			for r := 0; r < N; r++ {
				d := perm.CyclicShift(w.logN, r)
				t0 := sys.clock()
				_, err := sys.fab.RouteRound(d, r)
				tr.add(-1, spanRouteRound, -1, t0, sys.clock())
				if err != nil {
					return 0, fmt.Errorf("RouteRound: %w", err)
				}
			}
		}
	}
	if len(extra) == 0 {
		return 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range extra {
		if _, err := sys.exec(o, nil, -1); err != nil {
			return 0, fmt.Errorf("allocation count: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(extra)), nil
}

func hasKind(inputs [][]*op, k opKind) bool {
	for _, in := range inputs {
		for _, o := range in {
			if o.kind == k {
				return true
			}
		}
	}
	return false
}
