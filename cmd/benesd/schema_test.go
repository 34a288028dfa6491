package main

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/perm"
)

// The tests in this file check the metrics schema: each layer declares
// a stored series once, as a tagged field of its live metrics struct,
// and obs.Export and obs.Fill derive /metrics, /debug/history and the
// Stats() bodies from it. The differential tests hold that derivation
// to the hand-written registrations and snapshot builders it replaced,
// copied below; the copies reach the layers' unexported live fields by
// reflection, the only way in from outside their packages.

// schemaServer is benesd's wiring with the journal on and two planes,
// N=16, every object in reach.
type schemaServer struct {
	srv  *httptest.Server
	eng  *engine.Engine[int]
	fab  *fabric.Fabric[int]
	col  *collective.Service[int]
	jrn  *journal.Journal
	obs  *obsState
	ring *obs.TraceRing
}

func newSchemaServer(t *testing.T) *schemaServer {
	t.Helper()
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	jw := j.Writer()
	eng, err := engine.New[int](engine.Config{
		LogN:     4,
		Recorder: netsim.NewRecorder(core.New(4), runtime.GOMAXPROCS(0)+1),
		Journal:  jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(16, 0)
	fab, err := fabric.New[int](fabric.Config{LogN: 4, Planes: 2, VOQDepth: 4, Record: true, Journal: jw}, newTracedDeliver(ring))
	if err != nil {
		t.Fatal(err)
	}
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, j, ring, 8, time.Millisecond, testLogger())
	srv := httptest.NewServer(newMux(eng, fab, col, o, j))
	t.Cleanup(func() {
		srv.Close()
		o.hist.Stop()
		fab.Close()
		eng.Close()
		j.Close()
	})
	return &schemaServer{srv: srv, eng: eng, fab: fab, col: col, jrn: j, obs: o, ring: ring}
}

// fieldAt follows path from root — field names through structs and
// pointers, indices through slices and arrays — and returns the value
// there, addressable and writable even behind unexported fields.
func fieldAt(root any, path ...any) reflect.Value {
	v := reflect.ValueOf(root)
	for _, step := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		switch s := step.(type) {
		case string:
			v = v.FieldByName(s)
		case int:
			v = v.Index(s)
		}
		if !v.IsValid() {
			panic(fmt.Sprintf("no %v below %T", path, root))
		}
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// liveAt is fieldAt for a field of known type T.
func liveAt[T any](root any, path ...any) *T {
	v := fieldAt(root, path...)
	if v.Type() != reflect.TypeFor[T]() {
		panic(fmt.Sprintf("%v below %T is a %s, not a %s", path, root, v.Type(), reflect.TypeFor[T]()))
	}
	return v.Addr().Interface().(*T)
}

// planeEngine returns plane i's engine.
func planeEngine(fab *fabric.Fabric[int], i int) *engine.Engine[int] {
	return *liveAt[*engine.Engine[int]](fab, "planes", i, "eng")
}

// refHistogram registers h by hand, as RegisterHistogram and
// RegisterSizeHistogram did: Export over a one-field struct type,
// built at run time with the series' tag and laid over h itself.
func refHistogram(reg *obs.Registry, name, help string, labels obs.Labels, h *obs.Histogram, size bool) {
	if size {
		name += ",size"
	}
	t := reflect.StructOf([]reflect.StructField{{
		Name: "H",
		Type: reflect.TypeFor[obs.Histogram](),
		Tag:  reflect.StructTag(fmt.Sprintf("metric:%q help:%q", name, help)),
	}})
	reg.Export(reflect.NewAt(t, unsafe.Pointer(h)).Interface(), labels)
}

// refRegister is the hand-written registration of the five layers,
// in newObsState's order.
func refRegister(reg *obs.Registry, s *schemaServer) {
	refRegisterEngine(reg, s.eng, nil)
	refRegisterFabric(reg, s.fab)
	refRegisterCollective(reg, s.col)
	refRegisterJournal(reg, s.jrn.Metrics())
	refRegisterDiagnose(reg, s.obs.diag)
}

func refRegisterEngine(reg *obs.Registry, e *engine.Engine[int], labels obs.Labels) {
	c := func(name string) func() int64 { return liveAt[obs.Counter](e, "met", name).Value }
	h := func(name string) *obs.Histogram { return liveAt[obs.Histogram](e, "met", name) }
	reg.CounterFunc("benes_engine_requests_total", "Vectors accepted by Route.", labels, c("Requests"))
	reg.CounterFunc("benes_engine_plan_cache_hits_total", "Plans served from the cache.", labels, c("Hits"))
	reg.CounterFunc("benes_engine_plan_cache_misses_total", "Plans computed fresh.", labels, c("Misses"))
	reg.CounterFunc("benes_engine_loop_fallbacks_total", "Misses outside F(n) that ran the looping algorithm.", labels, c("Fallbacks"))
	reg.CounterFunc("benes_engine_errors_total", "Requests rejected (bad length, invalid permutation, closed).", labels, c("Errors"))
	reg.CounterFunc("benes_engine_plan_cache_evictions_total", "Plans displaced from the LRU cache.", labels, c("Evictions"))
	reg.CounterFunc("benes_engine_plan_cache_collisions_total", "Lookups that collided with a plan for a different permutation.", labels, c("Collisions"))
	reg.CounterFunc("benes_engine_frames_total", "Frames served synchronously via FrameServer.", labels, c("Frames"))
	reg.CounterFunc("benes_engine_mcasts_total", "Multicast mappings served via RouteMulticast.", labels, c("Mcasts"))
	reg.CounterFunc("benes_engine_mcast_frames_total", "Mapping frames served via McastFrameServer.", labels, c("McastFrames"))
	reg.CounterFunc("benes_engine_mcast_copies_total", "Output copies delivered by multicast plans.", labels, c("McastCopies"))
	reg.CounterFunc("benes_engine_probes_total", "Diagnostic passes served via ProbeRoute.", labels, c("Probes"))
	reg.GaugeFunc("benes_engine_plans_cached", "Plans currently held by the cache.", labels, func() float64 { return float64(refPlansCached(e)) })
	refHistogram(reg, "benes_engine_plan_seconds", "Plan acquisition: cache lookup plus setup on a miss.", labels, h("Plan"), false)
	refHistogram(reg, "benes_engine_apply_seconds", "Payload application (or gate-level states replay).", labels, h("Apply"), false)
	refHistogram(reg, "benes_engine_mcast_distribute_seconds", "Multicast compile: distribute/permute B(n) looping setups.", labels, h("McastDist"), false)
	refHistogram(reg, "benes_engine_mcast_copy_seconds", "Multicast compile: interval-splitting copy-ladder programming.", labels, h("McastCopy"), false)

	rec := e.Recorder()
	if rec == nil {
		return
	}
	for s := 0; s < rec.Stages(); s++ {
		stage := s
		sl := append(append(obs.Labels{}, labels...), [2]string{"stage", strconv.Itoa(stage)})
		reg.CounterFunc("benes_switch_traversals_total", "Destination tags that traversed the stage's switches.", sl,
			func() int64 { return rec.StageTotals(stage).Traversed })
		reg.CounterFunc("benes_switch_flips_total", "Switch state transitions between consecutively routed vectors.", sl,
			func() int64 { return rec.StageTotals(stage).Flips })
		reg.CounterFunc("benes_switch_forced_total", "Settings imposed by the omega bit rather than decided from tags.", sl,
			func() int64 { return rec.StageTotals(stage).Forced })
		reg.CounterFunc("benes_switch_fault_hits_total", "Vectors that demanded the opposite state from a stuck switch.", sl,
			func() int64 { return rec.StageTotals(stage).FaultHits })
		reg.GaugeFunc("benes_stage_skew", "Gini coefficient of the stage's per-switch traversal load.", sl,
			func() float64 { return obs.Gini(rec.TraversedRow(stage)) })
	}
}

// refPlansCached is the plan cache's len: each shard's recency list,
// read under the shard's lock.
func refPlansCached(e *engine.Engine[int]) int {
	total := 0
	for i := 0; i < fieldAt(e, "cache", "shards").Len(); i++ {
		mu := liveAt[sync.Mutex](e, "cache", "shards", i, "mu")
		mu.Lock()
		total += (*liveAt[*list.List](e, "cache", "shards", i, "ll")).Len()
		mu.Unlock()
	}
	return total
}

func refRegisterFabric(reg *obs.Registry, f *fabric.Fabric[int]) {
	c := func(path ...any) func() int64 { return liveAt[obs.Counter](f, append([]any{"met"}, path...)...).Value }
	h := func(name string) *obs.Histogram { return liveAt[obs.Histogram](f, "met", "Stages", name) }
	reg.CounterFunc("benes_fabric_accepted_total", "Packets admitted into a VOQ.", nil, c("Accepted"))
	reg.CounterFunc("benes_fabric_rejected_total", "Packets refused by tail drop or close.", nil, c("Rejected"))
	reg.CounterFunc("benes_fabric_delivered_total", "Packets verified at their output port.", nil, c("Delivered"))
	reg.CounterFunc("benes_fabric_lost_total", "Accepted packets abandoned (no healthy plane at close).", nil, c("Lost"))
	reg.CounterFunc("benes_fabric_frames_total", "Frames scheduled.", nil, c("Frames"))
	reg.CounterFunc("benes_fabric_failovers_total", "Frames re-dispatched after a plane failure.", nil, c("Failovers"))
	reg.CounterFunc("benes_fabric_rounds_total", "Collective rounds served.", nil, c("Rounds"))
	reg.CounterFunc("benes_fabric_round_failovers_total", "Rounds served only after a plane failover.", nil, c("RoundFailovers"))
	reg.CounterFunc("benes_fabric_mcast_accepted_total", "Multicast packets admitted.", nil, c("Mcast", "Accepted"))
	reg.CounterFunc("benes_fabric_mcast_delivered_total", "Multicast packets with every copy verified.", nil, c("Mcast", "Delivered"))
	reg.CounterFunc("benes_fabric_mcast_copies_total", "Verified multicast copies.", nil, c("Mcast", "Copies"))
	reg.CounterFunc("benes_fabric_mcast_frames_total", "Frames carrying at least one multicast packet.", nil, c("Mcast", "Frames"))
	reg.CounterFunc("benes_fabric_mcast_rounds_total", "Multicast collective rounds served.", nil, c("Mcast", "Rounds"))
	reg.GaugeFunc("benes_fabric_voq_occupied", "Packets currently queued across all VOQs.", nil,
		func() float64 { return float64(f.Health().VOQOccupied) })
	reg.GaugeFunc("benes_fabric_healthy_planes", "Planes currently in rotation.", nil,
		func() float64 { return float64(f.Health().PlanesHealthy) })
	refHistogram(reg, "benes_fabric_voq_wait_seconds", "Packet wait from VOQ enqueue to frame extraction.", nil, h("VOQWait"), false)
	refHistogram(reg, "benes_fabric_enqueue_wait_seconds", "Time Block-policy senders spent parked on a full VOQ ring.", nil, h("EnqueueWait"), false)
	refHistogram(reg, "benes_fabric_match_seconds", "Matching extraction (one scheduler tick).", nil, h("Match"), false)
	refHistogram(reg, "benes_fabric_plane_seconds", "Plane round-trip for one frame or round.", nil, h("PlaneRTT"), false)
	refHistogram(reg, "benes_fabric_handoff_batch_size", "Real packets per frame handed from a scheduler to its router.", nil, h("HandoffBatch"), true)
	refHistogram(reg, "benes_fabric_coalesce_size", "Packets delivered per coalesced frame drain.", nil, h("Coalesce"), true)
	for i := 0; i < f.Planes(); i++ {
		labels := obs.Labels{{"plane", strconv.Itoa(i)}}
		healthy := liveAt[atomic.Bool](f, "planes", i, "healthy")
		pc := func(name string) func() int64 { return liveAt[obs.Counter](f, "planes", i, "counts", name).Value }
		reg.GaugeFunc("benes_fabric_plane_healthy", "1 when the plane is in rotation.", labels, func() float64 {
			if healthy.Load() {
				return 1
			}
			return 0
		})
		reg.CounterFunc("benes_fabric_plane_frames_total", "Frames this plane routed.", labels, pc("Frames"))
		reg.CounterFunc("benes_fabric_plane_packets_total", "Payload packets inside routed frames.", labels, pc("Packets"))
		reg.CounterFunc("benes_fabric_plane_rounds_total", "Collective rounds this plane routed.", labels, pc("Rounds"))
		reg.CounterFunc("benes_fabric_plane_failovers_total", "Frames or rounds this plane rejected or misrouted.", labels, pc("Failovers"))
		refRegisterEngine(reg, planeEngine(f, i), labels)
	}
}

func refRegisterCollective(reg *obs.Registry, s *collective.Service[int]) {
	c := func(name string) func() int64 { return liveAt[obs.Counter](s, "met", name).Value }
	h := func(name string) *obs.Histogram { return liveAt[obs.Histogram](s, "met", name) }
	active, ewma := liveAt[atomic.Int64](s, "active"), liveAt[atomic.Int64](s, "ewmaRoundNs")
	reg.CounterFunc("benes_collective_submitted_total", "Collectives admitted.", nil, c("Submitted"))
	reg.CounterFunc("benes_collective_completed_total", "Collectives finished successfully.", nil, c("Completed"))
	reg.CounterFunc("benes_collective_failed_total", "Collectives settled with a routing error.", nil, c("Failed"))
	reg.CounterFunc("benes_collective_cancelled_total", "Collectives aborted by context cancellation.", nil, c("Cancelled"))
	reg.CounterFunc("benes_collective_deadline_rejected_total", "Collectives rejected at admission: schedule cannot meet the deadline.", nil, c("DeadlineRejected"))
	reg.CounterFunc("benes_collective_rounds_total", "Whole-permutation rounds executed.", nil, c("Rounds"))
	reg.CounterFunc("benes_collective_self_routed_rounds_total", "Rounds served without looping setup.", nil, c("SelfRouted"))
	reg.CounterFunc("benes_collective_fallback_rounds_total", "Rounds that fell back to the looping algorithm.", nil, c("Fallbacks"))
	reg.CounterFunc("benes_collective_mcast_rounds_total", "Copy-network (multicast) rounds executed.", nil, c("McastRounds"))
	reg.CounterFunc("benes_collective_round_cache_hits_total", "Rounds whose plan was already resolved on arrival.", nil, c("RoundCacheHits"))
	reg.CounterFunc("benes_collective_chunks_moved_total", "Payload chunks moved by completed rounds.", nil, c("ChunksMoved"))
	reg.GaugeFunc("benes_collective_active", "Collectives currently in flight.", nil,
		func() float64 { return float64(active.Load()) })
	reg.GaugeFunc("benes_collective_est_round_seconds", "Admission controller's per-round service-time estimate.", nil,
		func() float64 { return float64(ewma.Load()) / 1e9 })
	for op := 0; op < fieldAt(s, "perOp").Len(); op++ {
		reg.CounterFunc("benes_collective_ops_total", "Collectives submitted, by operation.",
			obs.Labels{{"op", collective.Op(op).String()}}, liveAt[obs.Counter](s, "perOp", op).Value)
	}
	refHistogram(reg, "benes_collective_round_seconds", "Per-round service time (route plus move application).", nil, h("Round"), false)
	refHistogram(reg, "benes_collective_op_seconds", "End-to-end collective latency, submit to settle.", nil, h("EndToEnd"), false)
}

func refRegisterJournal(reg *obs.Registry, m *journal.Metrics) {
	reg.CounterFunc("benes_journal_appended_total", "Records appended to the hash chain.", nil, m.Appended)
	reg.CounterFunc("benes_journal_dropped_total", "Records lost to a full spill queue or a failed spill write.", nil, m.Dropped)
	reg.CounterFunc("benes_journal_bytes_total", "Encoded record bytes appended, chain digests included.", nil, m.Bytes)
	reg.CounterFunc("benes_journal_spilled_segments_total", "Evicted segments written to the spill directory.", nil, m.Spilled)
	reg.CounterFunc("benes_journal_chain_verifies_total", "Chain-walk integrity verifications served.", nil, liveAt[obs.Counter](m, "chainVerifies").Value)
	reg.CounterFunc("benes_journal_replay_divergences_total", "Divergences reported by replay audits.", nil, m.ReplayDivergences)
	refHistogram(reg, "benes_journal_append_seconds", "One record append: encode, hash, chain extension.", nil, &m.Append, false)
}

func refRegisterDiagnose(reg *obs.Registry, m *diagnose.Metrics) {
	sessions, probes, eliminated := liveAt[obs.Counter](m, "sessions"), liveAt[obs.Counter](m, "probes"), liveAt[obs.Counter](m, "eliminated")
	reg.CounterFunc("benes_diagnose_sessions_total", "Diagnosis sessions started.", nil, sessions.Value)
	reg.CounterFunc("benes_diagnose_probes_total", "Probe permutations issued to oracles.", nil, probes.Value)
	reg.CounterFunc("benes_diagnose_eliminated_total", "Fault candidates eliminated by contradicting observations.", nil, eliminated.Value)
	reg.GaugeFunc("benes_diagnose_elimination_rate", "Candidates eliminated per probe issued.", nil, func() float64 {
		if probes.Value() == 0 {
			return 0
		}
		return float64(eliminated.Value()) / float64(probes.Value())
	})
	refHistogram(reg, "benes_diagnose_latency_seconds", "Wall-clock duration of whole diagnosis sessions.", nil, &m.Latency, false)
}

// refEngineStats is the hand-written engine.Stats.
func refEngineStats(e *engine.Engine[int]) engine.Snapshot {
	c := func(name string) int64 { return liveAt[obs.Counter](e, "met", name).Value() }
	h := func(name string) obs.HistogramSnapshot { return liveAt[obs.Histogram](e, "met", name).Snapshot() }
	s := engine.Snapshot{
		Requests:    c("Requests"),
		Hits:        c("Hits"),
		Misses:      c("Misses"),
		Fallbacks:   c("Fallbacks"),
		Errors:      c("Errors"),
		Evictions:   c("Evictions"),
		Collisions:  c("Collisions"),
		Frames:      c("Frames"),
		Mcasts:      c("Mcasts"),
		McastFrames: c("McastFrames"),
		McastCopies: c("McastCopies"),
		Probes:      c("Probes"),
		PlansCached: refPlansCached(e),
		Plan:        h("Plan"),
		Apply:       h("Apply"),
		McastDist:   h("McastDist"),
		McastCopy:   h("McastCopy"),
	}
	if lookups := s.Hits + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(lookups)
	}
	return s
}

// refFabricStats is the hand-written fabric.Stats. The VOQ books are
// no series and this schema does not build them, so they are taken
// from the snapshot under test.
func refFabricStats(f *fabric.Fabric[int], voq fabric.VOQSnapshot) fabric.Snapshot {
	c := func(path ...any) int64 { return liveAt[obs.Counter](f, append([]any{"met"}, path...)...).Value() }
	h := func(name string) obs.HistogramSnapshot {
		return liveAt[obs.Histogram](f, "met", "Stages", name).Snapshot()
	}
	s := fabric.Snapshot{
		Accepted:       c("Accepted"),
		Rejected:       c("Rejected"),
		Delivered:      c("Delivered"),
		Lost:           c("Lost"),
		Frames:         c("Frames"),
		Failovers:      c("Failovers"),
		Rounds:         c("Rounds"),
		RoundFailovers: c("RoundFailovers"),
		Mcast: fabric.McastSnapshot{
			Accepted:  c("Mcast", "Accepted"),
			Delivered: c("Mcast", "Delivered"),
			Copies:    c("Mcast", "Copies"),
			Frames:    c("Mcast", "Frames"),
			Rounds:    c("Mcast", "Rounds"),
		},
		Stages: fabric.StageSnapshot{
			VOQWait:      h("VOQWait"),
			EnqueueWait:  h("EnqueueWait"),
			Match:        h("Match"),
			PlaneRTT:     h("PlaneRTT"),
			HandoffBatch: h("HandoffBatch"),
			Coalesce:     h("Coalesce"),
		},
		VOQ: voq,
	}
	if s.Frames > 0 {
		s.FrameFill = float64(s.Delivered) / float64(s.Frames) / float64(f.N())
	}
	if s.Mcast.Delivered > 0 {
		s.Mcast.FanoutAmplification = float64(s.Mcast.Copies) / float64(s.Mcast.Delivered)
	}
	s.Planes = make([]fabric.PlaneSnapshot, f.Planes())
	for i := range s.Planes {
		pc := func(name string) int64 { return liveAt[obs.Counter](f, "planes", i, "counts", name).Value() }
		s.Planes[i] = fabric.PlaneSnapshot{
			ID:        *liveAt[int](f, "planes", i, "id"),
			Healthy:   liveAt[atomic.Bool](f, "planes", i, "healthy").Load(),
			Faults:    len(*liveAt[[]core.Fault](f, "planes", i, "faults")),
			Frames:    pc("Frames"),
			Packets:   pc("Packets"),
			Rounds:    pc("Rounds"),
			Failovers: pc("Failovers"),
			Engine:    refEngineStats(planeEngine(f, i)),
		}
	}
	return s
}

// refCollectiveStats is the hand-written collective Stats.
func refCollectiveStats(svc *collective.Service[int]) collective.Stats {
	c := func(name string) int64 { return liveAt[obs.Counter](svc, "met", name).Value() }
	h := func(name string) obs.HistogramSnapshot { return liveAt[obs.Histogram](svc, "met", name).Snapshot() }
	planeRounds := liveAt[[]atomic.Int64](svc, "planeRounds")
	st := collective.Stats{
		Submitted:        c("Submitted"),
		Completed:        c("Completed"),
		Failed:           c("Failed"),
		Cancelled:        c("Cancelled"),
		DeadlineRejected: c("DeadlineRejected"),
		Active:           liveAt[atomic.Int64](svc, "active").Load(),
		Rounds:           c("Rounds"),
		SelfRouted:       c("SelfRouted"),
		Fallbacks:        c("Fallbacks"),
		McastRounds:      c("McastRounds"),
		RoundCacheHits:   c("RoundCacheHits"),
		ChunksMoved:      c("ChunksMoved"),
		Round:            h("Round"),
		EndToEnd:         h("EndToEnd"),
		EstRoundNs:       liveAt[atomic.Int64](svc, "ewmaRoundNs").Load(),
		PlaneRounds:      make([]int64, len(*planeRounds)),
		PerOp:            map[string]int64{},
	}
	if st.Rounds > 0 {
		st.SelfRouteRatio = float64(st.SelfRouted) / float64(st.Rounds)
	}
	for i := range *planeRounds {
		st.PlaneRounds[i] = (*planeRounds)[i].Load()
	}
	for op := 0; op < fieldAt(svc, "perOp").Len(); op++ {
		if n := liveAt[obs.Counter](svc, "perOp", op).Value(); n > 0 {
			st.PerOp[collective.Op(op).String()] = n
		}
	}
	return st
}

// driveMixed sends every kind of traffic benesd serves: routes (F(n),
// looping and repeated), unicast and multicast packets, a multicast
// round, an alltoall and a broadcast, a diagnosis of a damaged plane
// while the other carries packets, and a replay of the journal. It
// then closes the fabric, which delivers everything still queued.
func driveMixed(t *testing.T, s *schemaServer) {
	t.Helper()
	url := s.srv.URL
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 6; i++ {
		d := perm.Random(16, rng)
		if i%2 == 0 {
			d = perm.BitReversal(4)
		}
		if resp, _ := postRoute(t, url, routeRequest{Dest: intList(d)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d: status %d", i, resp.StatusCode)
		}
	}
	send := func() {
		pkts := make([]sendPacket, 16)
		for i := range pkts {
			pkts[i] = sendPacket{Src: i, Dst: rng.Intn(16)}
		}
		if resp, _ := postSend(t, url, sendRequest{Packets: pkts}); resp.StatusCode != http.StatusOK {
			t.Fatalf("send: status %d", resp.StatusCode)
		}
	}
	send()
	if resp, _ := postMulticast(t, url, multicastRequest{Packet: true, Entries: []multicastEntry{
		{Src: 2, Dsts: []int{4, 5, 6}}, {Src: 9, Dsts: []int{0}},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("packet multicast: status %d", resp.StatusCode)
	}
	if resp, _ := postMulticast(t, url, multicastRequest{Entries: []multicastEntry{
		{Src: 3, Dsts: []int{0, 1, 2, 3}}, {Src: 7, Dsts: []int{6}},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("round multicast: status %d", resp.StatusCode)
	}
	data := make([]intList, 16)
	for p := range data {
		data[p] = make([]int, 16)
		for c := range data[p] {
			data[p][c] = p*100 + c
		}
	}
	if resp, _ := postCollective(t, url, collectiveRequest{Op: "alltoall", Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("alltoall: status %d", resp.StatusCode)
	}
	bcast := make([]intList, 16)
	bcast[6] = []int{41, 43}
	if resp, _ := postCollective(t, url, collectiveRequest{Op: "broadcast", Root: 6, Data: bcast}); resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast: status %d", resp.StatusCode)
	}
	if resp, _ := postDebugFaults(t, url, faultsRequest{Plane: 1, Faults: []faultSpec{{Stage: 3, Switch: 5, StuckCrossed: true}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: status %d", resp.StatusCode)
	}
	if resp, _ := postDebugDiagnose(t, url, diagnoseRequest{Plane: 1, Seed: 7}); resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: status %d", resp.StatusCode)
	}
	send()
	if resp, _ := postDebugFaults(t, url, faultsRequest{Plane: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: status %d", resp.StatusCode)
	}
	if resp, rep := postReplay(t, url, replayRequest{}); resp.StatusCode != http.StatusOK || !rep.Clean() {
		t.Fatalf("replay: status %d, %+v", resp.StatusCode, rep)
	}
	s.fab.Close()
	if st := s.fab.Stats(); st.Delivered+st.Lost != st.Accepted-st.Mcast.Accepted+st.Mcast.Copies {
		t.Fatalf("fabric did not drain: %+v", st)
	}
}

func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// encodeBody is a stats body as benesd's writeJSON encodes it.
func encodeBody(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSchemaMatchesHandWritten drives mixed traffic through benesd and
// holds the exposition, every Stats() value and the three stats bodies
// to the hand-written registrations and builders, byte for byte.
func TestSchemaMatchesHandWritten(t *testing.T) {
	s := newSchemaServer(t)
	ref := obs.NewRegistry()
	refRegister(ref, s)
	driveMixed(t, s)
	s.obs.hist.Stop()

	got, want := scrape(t, s.obs.reg), scrape(t, ref)
	if got != want {
		t.Fatalf("/metrics differs from the hand-written registration:\n%s", lineDiff(got, want))
	}
	if served := string(getBody(t, s.srv.URL+"/metrics")); served != got {
		t.Fatalf("/metrics body differs from the registry's scrape:\n%s", lineDiff(served, got))
	}
	// The traffic reached every layer, so the comparison is not of zeros.
	values := scrapeSeries(got)
	for _, series := range []string{
		"benes_engine_loop_fallbacks_total", `benes_engine_frames_total{plane="0"}`, "benes_fabric_rounds_total",
		"benes_fabric_mcast_copies_total", "benes_fabric_handoff_batch_size", "benes_collective_mcast_rounds_total",
		"benes_collective_op_seconds", "benes_journal_chain_verifies_total", "benes_diagnose_sessions_total",
	} {
		if v := values[series]; v == "" || v == "0 " || strings.HasSuffix(v, " 0 ") {
			t.Errorf("%s reads %q after mixed traffic", series, v)
		}
	}

	engSt := s.eng.Stats()
	if want := refEngineStats(s.eng); !reflect.DeepEqual(engSt, want) {
		t.Fatalf("engine Stats:\n got %+v\nwant %+v", engSt, want)
	}
	fabSt := s.fab.Stats()
	if want := refFabricStats(s.fab, fabSt.VOQ); !reflect.DeepEqual(fabSt, want) {
		t.Fatalf("fabric Stats:\n got %+v\nwant %+v", fabSt, want)
	}
	colSt := s.col.Stats()
	if want := refCollectiveStats(s.col); !reflect.DeepEqual(colSt, want) {
		t.Fatalf("collective Stats:\n got %+v\nwant %+v", colSt, want)
	}
	for path, want := range map[string]any{
		"/stats":            refEngineStats(s.eng),
		"/fabric/stats":     refFabricStats(s.fab, fabSt.VOQ),
		"/collective/stats": refCollectiveStats(s.col),
	} {
		if got, want := string(getBody(t, s.srv.URL+path)), encodeBody(t, want); got != want {
			t.Fatalf("%s body differs from the hand-written builder's:\n got %s\nwant %s", path, got, want)
		}
	}
}

// lineDiff lists the lines only one of two texts has.
func lineDiff(got, want string) string {
	count := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(want, "\n") {
		count[l]--
	}
	var out []string
	for l, c := range count {
		switch {
		case c > 0:
			out = append(out, "+ "+l)
		case c < 0:
			out = append(out, "- "+l)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "(same lines, different order)"
	}
	return strings.Join(out, "\n")
}

// TestOneNetworkPerProcess checks the /route engine and every plane
// engine route over one B(n); /debug/diagnose proves over the /route
// engine's.
func TestOneNetworkPerProcess(t *testing.T) {
	s := newSchemaServer(t)
	net := s.eng.Network()
	for i := 0; i < s.fab.Planes(); i++ {
		if planeEngine(s.fab, i).Network() != net {
			t.Fatalf("plane %d's engine holds its own copy of B(4)", i)
		}
	}
}

// liveLeaf is one counter or histogram of a live metrics struct,
// with a way to move it.
type liveLeaf struct {
	path string
	bump func()
}

// liveLeaves lists the counters and histograms of the live metrics
// struct v, descending into groups.
func liveLeaves(v reflect.Value, prefix string) []liveLeaf {
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var out []liveLeaf
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		path := prefix + v.Type().Field(i).Name
		switch p := f.Addr().Interface().(type) {
		case *obs.Counter:
			out = append(out, liveLeaf{path, func() { p.Add(1) }})
		case *obs.Histogram:
			out = append(out, liveLeaf{path, func() { p.Observe(3 * time.Millisecond) }})
		default:
			out = append(out, liveLeaves(f, path+".")...)
		}
	}
	return out
}

// scrapeSeries maps each series of a scrape, a histogram's bucket, sum
// and count lines folded into one, to its values.
func scrapeSeries(text string) map[string]string {
	types := map[string]string{}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		key, val := line[:sp], line[sp+1:]
		name, labels, _ := strings.Cut(key, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				name = base
				if i := strings.Index(labels, "le="); i >= 0 {
					labels = strings.TrimSuffix(labels[:i], ",")
					if labels != "" {
						labels += "}"
					}
				}
			}
		}
		series := name
		if labels != "" {
			series += "{" + labels
		}
		out[series] += val + " "
	}
	return out
}

// jsonFields flattens a stats body into its fields: each scalar by
// its dotted path, each histogram snapshot (an object with a p50_ns)
// as one field.
func jsonFields(t *testing.T, body []byte) map[string]string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if _, ok := x["p50_ns"]; ok {
				b, _ := json.Marshal(x)
				out[path] = string(b)
				return
			}
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range x {
				walk(path+"."+strconv.Itoa(i), e)
			}
		default:
			out[path] = fmt.Sprint(x)
		}
	}
	walk("", v)
	return out
}

// changed lists the keys whose values differ between two maps.
func changed(a, b map[string]string) []string {
	var out []string
	for k, v := range b {
		if a[k] != v {
			out = append(out, k)
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// derivedJSON are the stats fields computed from stored series: a
// move of a series may move them too.
var derivedJSON = map[string]bool{"hit_rate": true, "frame_fill": true, "fanout_amplification": true, "self_route_ratio": true}

// storedJSON lists the int64 and histogram fields of snapshot type t
// as JSON paths under prefix, slices expanded to n elements. The VOQ
// books and the collective service's gauges are no series and are
// left out.
func storedJSON(t reflect.Type, prefix string, n int) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		path := prefix + "." + key
		switch {
		case key == "voq" || key == "active" || key == "est_round_ns":
		case sf.Type == reflect.TypeFor[int64]() || sf.Type == reflect.TypeFor[obs.HistogramSnapshot]():
			out = append(out, path)
		case sf.Type.Kind() == reflect.Struct:
			out = append(out, storedJSON(sf.Type, path, n)...)
		case sf.Type.Kind() == reflect.Slice && sf.Type.Elem().Kind() == reflect.Struct:
			for j := 0; j < n; j++ {
				out = append(out, storedJSON(sf.Type.Elem(), path+"."+strconv.Itoa(j), n)...)
			}
		}
	}
	return out
}

// TestSeriesMapToJSON moves each stored series of the engine, the
// fabric (each plane and plane engine included) and the collective
// service by hand and checks that exactly one /metrics series and
// exactly one stored field of the layer's stats body move with it;
// that every counter and histogram series of the three layers, but the
// computed ones, is among them; and that every stored int64 or
// histogram field of the three bodies is.
func TestSeriesMapToJSON(t *testing.T) {
	s := newSchemaServer(t)
	s.obs.hist.Stop()
	type layer struct {
		body string
		live reflect.Value
		name string
	}
	layers := []layer{
		{"/stats", fieldAt(s.eng, "met"), "engine"},
		{"/fabric/stats", fieldAt(s.fab, "met"), "fabric"},
		{"/collective/stats", fieldAt(s.col, "met"), "collective"},
	}
	for i := 0; i < s.fab.Planes(); i++ {
		layers = append(layers,
			layer{"/fabric/stats", fieldAt(s.fab, "planes", i, "counts"), fmt.Sprintf("plane %d", i)},
			layer{"/fabric/stats", fieldAt(planeEngine(s.fab, i), "met"), fmt.Sprintf("plane %d engine", i)})
	}
	seriesOf := map[string]string{}         // series -> the field that moved it
	fieldOf := map[string]map[string]bool{} // body -> JSON fields some series moved
	for _, l := range layers {
		for _, leaf := range liveLeaves(l.live, "") {
			before, bodyBefore := scrapeSeries(scrape(t, s.obs.reg)), jsonFields(t, getBody(t, s.srv.URL+l.body))
			leaf.bump()
			after, bodyAfter := scrapeSeries(scrape(t, s.obs.reg)), jsonFields(t, getBody(t, s.srv.URL+l.body))
			where := l.name + " " + leaf.path
			moved := changed(before, after)
			if len(moved) != 1 {
				t.Fatalf("%s moved %d series: %v", where, len(moved), moved)
			}
			if prev, dup := seriesOf[moved[0]]; dup {
				t.Fatalf("%s and %s both move %s", prev, where, moved[0])
			}
			seriesOf[moved[0]] = where
			var fields []string
			for _, f := range changed(bodyBefore, bodyAfter) {
				if !derivedJSON[f[strings.LastIndexByte(f, '.')+1:]] {
					fields = append(fields, f)
				}
			}
			if len(fields) != 1 {
				t.Fatalf("%s (series %s) moved %d stored fields of %s: %v", where, moved[0], len(fields), l.body, fields)
			}
			if fieldOf[l.body] == nil {
				fieldOf[l.body] = map[string]bool{}
			}
			if fieldOf[l.body][fields[0]] {
				t.Fatalf("%s field %s moves with two series", l.body, fields[0])
			}
			fieldOf[l.body][fields[0]] = true
		}
	}

	// Every stored series of the three layers moved: the scrape's
	// counters and histograms, but the ones computed at scrape time.
	computed := map[string]bool{
		"benes_switch_traversals_total": true, "benes_switch_flips_total": true, "benes_switch_forced_total": true,
		"benes_switch_fault_hits_total": true, "benes_collective_ops_total": true,
	}
	text := scrape(t, s.obs.reg)
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	stored := 0
	for series := range scrapeSeries(text) {
		name, _, _ := strings.Cut(series, "{")
		if computed[name] || types[name] == "gauge" ||
			!(strings.HasPrefix(name, "benes_engine_") || strings.HasPrefix(name, "benes_fabric_") || strings.HasPrefix(name, "benes_collective_")) {
			continue
		}
		stored++
		if _, ok := seriesOf[series]; !ok {
			t.Errorf("series %s moves with no live field", series)
		}
	}
	// engine 16, fabric 19, per plane 4 + 16, collective 13.
	if want := 16 + 19 + s.fab.Planes()*(4+16) + 13; stored != want || len(seriesOf) != want {
		t.Errorf("%d stored series in the scrape, %d moved by a live field; want %d", stored, len(seriesOf), want)
	}

	// Every stored field of the three bodies moved with a series.
	for body, typ := range map[string]reflect.Type{
		"/stats":            reflect.TypeFor[engine.Snapshot](),
		"/fabric/stats":     reflect.TypeFor[fabric.Snapshot](),
		"/collective/stats": reflect.TypeFor[collective.Stats](),
	} {
		for _, f := range storedJSON(typ, "", s.fab.Planes()) {
			if !fieldOf[body][f] {
				t.Errorf("%s field %s moves with no series", body, f)
			}
		}
	}
}

// TestSchemaConcurrent races Stats() calls, the three stats bodies and
// /metrics scrapes against live route, packet and collective traffic.
// Run with -race: every counter read must be monotone across reads.
func TestSchemaConcurrent(t *testing.T) {
	s := newSchemaServer(t)
	const iters = 40
	call := func(method, path string, body any) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := http.NewRequest(method, s.srv.URL+path, strings.NewReader(string(raw)))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	var traffic, readers sync.WaitGroup
	stop := make(chan struct{})
	traffic.Add(3)
	go func() {
		defer traffic.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < iters; i++ {
			if resp := s.eng.Route(perm.Random(16, rng), make([]int, 16)); resp.Err != nil {
				t.Error(resp.Err)
				return
			}
		}
	}()
	go func() {
		defer traffic.Done()
		for i := 0; i < iters; i++ {
			call("POST", "/send", sendRequest{Packets: []sendPacket{{Src: i % 16, Dst: (i * 7) % 16}, {Src: (i + 3) % 16, Dst: i % 16}}})
			call("POST", "/multicast", multicastRequest{Packet: true, Entries: []multicastEntry{{Src: i % 16, Dsts: []int{1, 2}}}})
		}
	}()
	go func() {
		defer traffic.Done()
		bcast := make([]intList, 16)
		bcast[3] = []int{7}
		for i := 0; i < iters/4; i++ {
			call("POST", "/collective", collectiveRequest{Op: "broadcast", Root: 3, Data: bcast})
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last [4]int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, f, c := s.eng.Stats(), s.fab.Stats(), s.col.Stats()
				now := [4]int64{e.Requests, f.Accepted, f.Planes[0].Engine.Frames, c.Submitted}
				for k := range now {
					if now[k] < last[k] {
						t.Errorf("counter %d moved backwards: %d -> %d", k, last[k], now[k])
						return
					}
				}
				last = now
				if err := s.obs.reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				for _, path := range []string{"/stats", "/fabric/stats", "/collective/stats", "/metrics"} {
					call("GET", path, nil)
				}
			}
		}()
	}
	traffic.Wait()
	close(stop)
	readers.Wait()
}
