package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/mcast"
	"repro/internal/netsim"
	"repro/internal/packed"
	"repro/internal/perm"
)

// payload returns the canonical test payload 0..N-1, so routed output
// position Dest[i] must hold value i.
func payload(n int) []int {
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return data
}

// checkRouted verifies that resp delivered payload(N) according to d.
func checkRouted(t *testing.T, d perm.Perm, resp Response[int]) {
	t.Helper()
	if resp.Err != nil {
		t.Fatalf("route %v: unexpected error %v", d, resp.Err)
	}
	want := perm.Apply(d, payload(len(d)))
	if len(resp.Data) != len(want) {
		t.Fatalf("route %v: got %d elements, want %d", d, len(resp.Data), len(want))
	}
	for i := range want {
		if resp.Data[i] != want[i] {
			t.Fatalf("route %v: output %d = %d, want %d (full: %v)", d, i, resp.Data[i], want[i], resp.Data)
		}
	}
}

// TestExhaustiveN8 routes every permutation of N=8 through the engine
// and checks (a) the payload lands exactly where perm.Apply says, and
// (b) the plan kind agrees with the Theorem 1 characterization of F(n).
// A deliberately tiny cache forces constant eviction churn.
func TestExhaustiveN8(t *testing.T) {
	eng, err := New[int](Config{LogN: 3, CacheCapacity: 8, CacheShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	data := payload(8)
	perm.ForEach(8, func(p perm.Perm) bool {
		d := p.Clone() // ForEach reuses the slice
		resp := eng.Route(d, data)
		checkRouted(t, d, resp)
		wantKind := PlanLooped
		if perm.InF(d) {
			wantKind = PlanSelfRouted
		}
		if resp.Kind != wantKind {
			t.Fatalf("route %v: plan kind %v, want %v", d, resp.Kind, wantKind)
		}
		return true
	})
	s := eng.Stats()
	if s.Misses == 0 || s.Fallbacks == 0 {
		t.Fatalf("expected misses and fallbacks over all of S_8, got %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatalf("capacity-8 cache over 40320 perms must evict, got %+v", s)
	}
}

// TestExhaustiveN8Memo routes every permutation of N=8 through an
// engine in benesd's cold-setup configuration (ParallelSetup with
// SetupMemo) with a serial cutoff of 2 lines, so every miss outside
// F(3) splits the top block and looks both B(2) halves up in the memo.
// Only 24 half permutations exist, so sub-plan hits unpack packed
// blocks into live setups. Every payload must equal the serial
// engine's, and every cached plan and sub-plan, unpacked, must realize
// its destination vector gate by gate.
func TestExhaustiveN8Memo(t *testing.T) {
	serial, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	par, err := New[int](Config{LogN: 3, ParallelSetup: true, SetupMemo: true, SetupCutoff: 2, CacheCapacity: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	data := payload(8)
	perm.ForEach(8, func(p perm.Perm) bool {
		d := p.Clone() // ForEach reuses the slice
		want, got := serial.Route(d, data), par.Route(d, data)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("route %v: serial %v, parallel %v", d, want.Err, got.Err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("route %v: output %d = %d, serial engine %d", d, i, got.Data[i], want.Data[i])
			}
		}
		return true
	})
	s := par.Stats()
	if s.SubplanHits == 0 || s.Evictions != 0 {
		t.Fatalf("want sub-plan hits and no evictions over S_8, got %+v", s)
	}
	nets := map[PlanKind]*core.Network{PlanSelfRouted: par.net, PlanParallel: par.net, PlanSubBlock: core.New(2)}
	kinds := map[PlanKind]int{}
	for _, pl := range cachedPlans(par) {
		net := nets[pl.Kind]
		if net == nil {
			t.Fatalf("unexpected %v plan in the cache", pl.Kind)
		}
		d, st := unpackPlan(net, pl)
		if res := net.ExternalRoute(d, st); !res.OK() || !res.Realized.Equal(d) {
			t.Fatalf("%v plan for %v realizes %v", pl.Kind, d, res.Realized)
		}
		kinds[pl.Kind]++
	}
	if kinds[PlanSelfRouted]+kinds[PlanParallel] != 40320 || kinds[PlanSubBlock] != 24 {
		t.Fatalf("cached plans by kind %v, want 40320 routing plans and 24 sub-plans", kinds)
	}
}

// unpackPlan decodes a cached routing plan or sub-plan on net, the
// network of its size: the destination vector and switch setting the
// plan keeps packed.
func unpackPlan(net *core.Network, pl *Plan) (perm.Perm, core.States) {
	d := make(perm.Perm, net.N())
	w := packed.Width(uint32(net.N() - 1))
	for i := range d {
		d[i] = int(packed.At(pl.dest, w, i))
	}
	st := net.NewStates()
	st.Unpack(pl.setting)
	return d, st
}

// cachedPlans returns every plan e's cache holds.
func cachedPlans(e *Engine[int]) []*Plan {
	var out []*Plan
	for i := range e.cache.shards {
		sh := &e.cache.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*Plan))
		}
		sh.mu.Unlock()
	}
	return out
}

// TestRandomizedN256 routes random permutations (mostly outside F) and
// structured F members at N=256, each twice, through a serial-setup
// engine and a parallel-setup one (benesd's default: ParallelSetup with
// SetupMemo). Besides checking the payload, it unpacks every resolved
// plan and replays its switch setting gate by gate through
// core.ExternalRoute: the setting must realize the plan's destination
// vector, for self-routed, looped and parallel plans alike.
func TestRandomizedN256(t *testing.T) {
	const n = 8 // N = 256
	rng := rand.New(rand.NewSource(42))
	serial, err := New[int](Config{LogN: n})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	par, err := New[int](Config{LogN: n, ParallelSetup: true, SetupMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	var cases []perm.Perm
	for i := 0; i < 60; i++ {
		cases = append(cases, perm.Random(256, rng))
	}
	for i := 0; i < 30; i++ {
		cases = append(cases, perm.RandomF(n, rng))
		cases = append(cases, perm.RandomBPC(n, rng).Perm())
	}
	cases = append(cases, perm.Identity(256), perm.BitReversal(n))

	data := payload(256)
	kinds := map[PlanKind]int{}
	for round := 0; round < 2; round++ {
		for _, d := range cases {
			for _, eng := range []*Engine[int]{serial, par} {
				resp := eng.Route(d, data)
				checkRouted(t, d, resp)
				if round == 1 && !resp.CacheHit {
					t.Fatalf("second round must hit the cache for %v", d)
				}
				pl := eng.cache.get(hashPerm(d), d)
				if pl == nil || pl.Kind != resp.Kind {
					t.Fatalf("plan for %v not cached as kind %v: %+v", d, resp.Kind, pl)
				}
				dest, st := unpackPlan(eng.net, pl)
				if res := eng.net.ExternalRoute(dest, st); !res.OK() || !res.Realized.Equal(d) {
					t.Fatalf("%v plan states for %v realize %v", pl.Kind, d, res.Realized)
				}
				kinds[pl.Kind]++
			}
		}
	}
	for _, k := range []PlanKind{PlanSelfRouted, PlanLooped, PlanParallel} {
		if kinds[k] == 0 {
			t.Fatalf("no %v plan resolved; kinds seen %v", k, kinds)
		}
	}
	s := serial.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", s)
	}
	if s.HitRate <= 0 || s.HitRate >= 1 {
		t.Fatalf("hit rate should be in (0,1), got %v", s.HitRate)
	}
}

// TestConcurrentHitMiss hammers one shared engine from many goroutines
// over a small permutation pool with an undersized cache, so hits,
// misses, and evictions race. Run under -race this is the cache's
// concurrency test.
func TestConcurrentHitMiss(t *testing.T) {
	const n = 5 // N = 32
	rng := rand.New(rand.NewSource(7))
	pool := make([]perm.Perm, 48)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = perm.Random(32, rng)
		} else {
			pool[i] = perm.RandomF(n, rng)
		}
	}
	eng, err := New[int](Config{LogN: n, CacheCapacity: 16, CacheShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	workers := 2 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			data := payload(32)
			for i := 0; i < 300; i++ {
				d := pool[rng.Intn(len(pool))]
				resp := eng.Route(d, data)
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
				for j, v := range perm.Apply(d, data) {
					if resp.Data[j] != v {
						t.Errorf("goroutine %d: wrong routing for %v", seed, d)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("expected hits, misses and evictions under churn, got %+v", s)
	}
}

// TestErrors covers the rejection paths: length mismatch, invalid
// permutation, and submission after Close.
func TestErrors(t *testing.T) {
	eng, err := New[int](Config{LogN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp := eng.Route(perm.Identity(4), payload(8)); resp.Err == nil {
		t.Fatal("short permutation must be rejected")
	}
	if resp := eng.Route(perm.Identity(8), payload(4)); resp.Err == nil {
		t.Fatal("short payload must be rejected")
	}
	bad := perm.Perm{0, 0, 1, 2, 3, 4, 5, 6} // duplicate destination
	if resp := eng.Route(bad, payload(8)); resp.Err == nil {
		t.Fatal("invalid permutation must be rejected")
	}
	good := eng.Route(perm.Identity(8), payload(8))
	if good.Err != nil {
		t.Fatalf("valid request failed: %v", good.Err)
	}
	eng.Close()
	eng.Close() // idempotent
	if resp := eng.Route(perm.Identity(8), payload(8)); resp.Err != ErrClosed {
		t.Fatalf("after Close want ErrClosed, got %v", resp.Err)
	}
	if _, err := New[int](Config{LogN: 0}); err == nil {
		t.Fatal("LogN=0 must be rejected")
	}
}

// TestRouteWithoutPayload pins the nil-payload serve collective rounds
// use: Route(d, nil) and RouteMulticast(m, nil), on a miss and on a
// hit, report the Kind and CacheHit of the same call with a payload,
// journal the same records and move both recorders exactly as far;
// only the apply is skipped. A non-nil payload of the wrong length is
// still rejected.
func TestRouteWithoutPayload(t *testing.T) {
	const logN = 4
	n := 1 << logN
	type rig struct {
		eng *Engine[int]
		jrn *journal.Journal
	}
	newRig := func() rig {
		j, err := journal.New(journal.Config{CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(j.Close)
		eng, err := New[int](Config{LogN: logN, Recorder: netsim.NewRecorder(core.New(logN), 1), Journal: j.Writer()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return rig{eng, j}
	}
	with, without := newRig(), newRig()
	data := payload(n)
	rng := rand.New(rand.NewSource(5))

	for _, d := range []perm.Perm{perm.BitReversal(logN), nonFPerm(t, with.eng.Network(), rng)} {
		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			a, b := with.eng.Route(d, data), without.eng.Route(d, nil)
			if a.Err != nil || b.Err != nil {
				t.Fatalf("route: %v / %v", a.Err, b.Err)
			}
			checkRouted(t, d, a)
			if b.Data != nil {
				t.Fatalf("nil payload returned data %v", b.Data)
			}
			if a.Kind != b.Kind || a.CacheHit != b.CacheHit || b.CacheHit != (pass == 1) {
				t.Fatalf("pass %d: nil payload served %v hit=%v, payload %v hit=%v",
					pass, b.Kind, b.CacheHit, a.Kind, a.CacheHit)
			}
		}
	}
	for _, m := range []mcast.Mapping{fanoutMapping(n, rng), broadcastMapping(n, 3)} {
		for pass := 0; pass < 2; pass++ {
			a, b := with.eng.RouteMulticast(m, data), without.eng.RouteMulticast(m, nil)
			if a.Err != nil || b.Err != nil {
				t.Fatalf("multicast: %v / %v", a.Err, b.Err)
			}
			checkMcastData(t, m, a.Data)
			if b.Data != nil {
				t.Fatalf("nil multicast payload returned data %v", b.Data)
			}
			if a.CacheHit != b.CacheHit || b.CacheHit != (pass == 1) {
				t.Fatalf("pass %d: nil multicast payload hit=%v, payload hit=%v", pass, b.CacheHit, a.CacheHit)
			}
		}
	}

	if a, b := with.eng.Recorder().Snapshot(), without.eng.Recorder().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatal("nil payloads moved the recorder differently from payloads")
	}
	if a, b := with.eng.LadderRecorder().Snapshot(), without.eng.LadderRecorder().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatal("nil payloads moved the ladder recorder differently from payloads")
	}
	ra, err := with.jrn.Read(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := without.jrn.Read(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 4 || len(rb) != len(ra) {
		t.Fatalf("journaled %d records with payloads and %d without, want 4 each", len(ra), len(rb))
	}
	for k := range ra {
		a, b := ra[k], rb[k]
		if a.Kind != b.Kind || a.Delivered != b.Delivered || !slices.Equal(a.Dest, b.Dest) {
			t.Fatalf("record %d: nil payload journaled %v %x, payload %v %x", k+1, b.Kind, b.Delivered, a.Kind, a.Delivered)
		}
	}
	sa, sb := with.eng.Stats(), without.eng.Stats()
	if sa.Apply.Count != 8 || sb.Apply.Count != 0 {
		t.Fatalf("applies timed: %d with payloads, %d without, want 8 and 0", sa.Apply.Count, sb.Apply.Count)
	}

	if resp := without.eng.Route(perm.Identity(n), []int{}); resp.Err == nil {
		t.Fatal("an empty non-nil payload must be rejected")
	}
	if resp := without.eng.RouteMulticast(broadcastMapping(n, 0), make([]int, n-1)); resp.Err == nil {
		t.Fatal("a short multicast payload must be rejected")
	}
}

// TestCloseDrainsInFlightRoutes checks that Close returns only after
// every in-flight Route and RouteMulticast has finished: goroutines
// loop both over cached permutations and mappings on an engine with a
// journal and a recorder while the test calls Close, and once Close
// returns neither the journal, the recorder nor the ladder recorder
// may move again. Every response must be a correctly routed vector or
// ErrClosed.
func TestCloseDrainsInFlightRoutes(t *testing.T) {
	const logN, routers, mcasters = 8, 8, 4
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	net := core.New(logN)
	rec := netsim.NewRecorder(net, 1)
	eng, err := New[int](Config{LogN: logN, Recorder: rec, Journal: j.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	perms := []perm.Perm{perm.BitReversal(logN), perm.PerfectShuffle(logN), perm.CyclicShift(logN, 5), perm.Identity(1 << logN)}
	maps := make([]mcast.Mapping, 2)
	for i := range maps {
		maps[i] = make(mcast.Mapping, 1<<logN)
	}
	for out := range maps[0] {
		maps[0][out] = out / 2 * 2 // pairwise fan-out from even sources
		maps[1][out] = 7           // broadcast from input 7
	}
	data := payload(1 << logN)
	for _, d := range perms {
		checkRouted(t, d, eng.Route(d, data))
	}
	for _, m := range maps {
		if resp := eng.RouteMulticast(m, data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	recorders := []*netsim.Recorder{rec, eng.LadderRecorder()}
	totals := func() [][]netsim.StageTotals {
		out := make([][]netsim.StageTotals, len(recorders))
		for r, rr := range recorders {
			out[r] = make([]netsim.StageTotals, rr.Stages())
			for s := range out[r] {
				out[r][s] = rr.StageTotals(s)
			}
		}
		return out
	}

	var routes, mcasts atomic.Int64
	errs := make(chan error, routers+mcasters)
	var wg sync.WaitGroup
	for g := 0; g < routers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				d := perms[i%len(perms)]
				resp := eng.Route(d, data)
				if errors.Is(resp.Err, ErrClosed) {
					return
				}
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
				for k, v := range perm.Apply(d, data) {
					if resp.Data[k] != v {
						errs <- fmt.Errorf("goroutine %d: wrong routing for %v", g, d)
						return
					}
				}
				routes.Add(1)
			}
		}(g)
	}
	for g := 0; g < mcasters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				m := maps[i%len(maps)]
				resp := eng.RouteMulticast(m, data)
				if errors.Is(resp.Err, ErrClosed) {
					return
				}
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
				for out, src := range m {
					if resp.Data[out] != data[src] {
						errs <- fmt.Errorf("multicast goroutine %d: output %d holds %d, want %d", g, out, resp.Data[out], data[src])
						return
					}
				}
				mcasts.Add(1)
			}
		}(g)
	}
	for (routes.Load() < 4*routers || mcasts.Load() < 4*mcasters) && len(errs) == 0 {
		runtime.Gosched()
	}
	eng.Close()
	appended, after := j.Metrics().Appended(), totals()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := j.Metrics().Appended(); got != appended {
		t.Fatalf("journal appended %d records after Close returned (%d at Close)", got-appended, appended)
	}
	for r, now := range totals() {
		for s := range now {
			if now[s] != after[r][s] {
				t.Fatalf("recorder %d stage %d totals moved after Close returned: %+v, then %+v", r, s, after[r][s], now[s])
			}
		}
	}
	if want := int64(len(perms)) + routes.Load(); appended != want {
		t.Fatalf("journal holds %d route records, want one per served route (%d)", appended, want)
	}
}
