package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/mcast"
	"repro/internal/netsim"
	"repro/internal/packed"
)

func newMcastEngine(t *testing.T, logn int, rec *netsim.Recorder) *Engine[int] {
	t.Helper()
	e, err := New[int](Config{LogN: logn, Recorder: rec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

func identityData(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func checkMcastData(t *testing.T, m mcast.Mapping, data []int) {
	t.Helper()
	for out, src := range m {
		want := 0
		if src >= 0 {
			want = src
		}
		if data[out] != want {
			t.Fatalf("output %d carries %d, want %d (mapping %v)", out, data[out], want, m)
		}
	}
}

func TestRouteMulticast(t *testing.T) {
	net := core.New(3)
	e := newMcastEngine(t, 3, netsim.NewRecorder(net, 2))
	n := net.N()

	m := mcast.Mapping{3, 3, 0, 3, 5, 0, -1, 5}
	resp := e.RouteMulticast(m, identityData(n))
	if resp.Err != nil {
		t.Fatalf("RouteMulticast: %v", resp.Err)
	}
	if resp.CacheHit {
		t.Fatal("first route reported a cache hit")
	}
	if pl := e.cache.getMapping(hashMapping(m), m); pl == nil || pl.Kind != PlanMulticast ||
		len(pl.setting) != mcast.PackedLen(net) {
		t.Fatalf("plan not cached as multicast: %+v", pl)
	}
	checkMcastData(t, m, resp.Data)

	resp = e.RouteMulticast(m, identityData(n))
	if resp.Err != nil {
		t.Fatalf("repeat RouteMulticast: %v", resp.Err)
	}
	if !resp.CacheHit {
		t.Fatal("repeat route missed the plan cache")
	}
	checkMcastData(t, m, resp.Data)

	st := e.Stats()
	if st.Mcasts != 2 {
		t.Fatalf("Mcasts = %d, want 2", st.Mcasts)
	}
	if want := int64(2 * m.Assigned()); st.McastCopies != want {
		t.Fatalf("McastCopies = %d, want %d", st.McastCopies, want)
	}
	if st.McastDist.Count == 0 || st.McastCopy.Count == 0 {
		t.Fatalf("phase histograms not observed: dist %d, copy %d", st.McastDist.Count, st.McastCopy.Count)
	}
}

// unpackMcastPlan rebuilds a cached multicast plan's mapping from its
// packed vector, alongside its words, for gate-level replay through
// mcast.Plan.Route.
func unpackMcastPlan(net *core.Network, pl *Plan) *mcast.Plan {
	p := &mcast.Plan{Map: make(mcast.Mapping, net.N()), Words: pl.setting}
	w := packed.Width(uint32(net.N()))
	for out := range p.Map {
		p.Map[out] = int(packed.At(pl.dest, w, out)) - 1
	}
	return p
}

// unpackPhases decodes a packed copy-network plan switch by switch
// into its distribute and permute settings and its ladder.
func unpackPhases(net *core.Network, words []uint64) (distSt, permSt core.States, ladder core.McastStates) {
	dist, perm, lo, hi := mcast.Phases(net, words)
	distSt, permSt = net.NewStates(), net.NewStates()
	distSt.Unpack(dist)
	permSt.Unpack(perm)
	ladder = make(core.McastStates, net.LogN())
	for j := range ladder {
		ladder[j] = make([]core.McastState, net.SwitchesPerStage())
		for i := range ladder[j] {
			k, b := j*net.StageWords()+i/64, uint(i%64)
			ladder[j][i] = core.McastState(lo[k]>>b&1 | hi[k]>>b&1<<1)
		}
	}
	return distSt, permSt, ladder
}

// TestRouteMulticastReplay serves a full broadcast, then unpacks the
// cached copy-network plan and replays it gate by gate: it must hold
// the mapping, and every source must reach exactly the outputs the
// mapping assigns it.
func TestRouteMulticastReplay(t *testing.T) {
	e := newMcastEngine(t, 3, nil)
	n := e.Network().N()
	m := make(mcast.Mapping, n)
	for out := range m {
		m[out] = 2 // full broadcast
	}
	resp := e.RouteMulticast(m, identityData(n))
	if resp.Err != nil {
		t.Fatalf("RouteMulticast: %v", resp.Err)
	}
	checkMcastData(t, m, resp.Data)
	pl := e.cache.getMapping(hashMapping(m), m)
	if pl == nil {
		t.Fatal("broadcast plan not cached")
	}
	p := unpackMcastPlan(e.net, pl)
	if !p.Map.Equal(m) {
		t.Fatalf("cached plan holds mapping %v, want %v", p.Map, m)
	}
	if res := p.Route(e.net); !res.OK() {
		t.Fatalf("replayed plan misrouted sources %v", res.Misrouted)
	}
}

func TestRouteMulticastRandom(t *testing.T) {
	e := newMcastEngine(t, 4, nil)
	n := e.Network().N()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := make(mcast.Mapping, n)
		srcs := rng.Intn(n) + 1
		for out := range m {
			m[out] = rng.Intn(srcs)
		}
		resp := e.RouteMulticast(m, identityData(n))
		if resp.Err != nil {
			t.Fatalf("trial %d: %v", trial, resp.Err)
		}
		checkMcastData(t, m, resp.Data)
	}
}

func TestRouteMulticastErrors(t *testing.T) {
	e := newMcastEngine(t, 3, nil)
	n := e.Network().N()
	if resp := e.RouteMulticast(make(mcast.Mapping, n-1), identityData(n)); resp.Err == nil {
		t.Fatal("short mapping accepted")
	}
	empty := make(mcast.Mapping, n)
	for i := range empty {
		empty[i] = -1
	}
	if resp := e.RouteMulticast(empty, identityData(n)); resp.Err != ErrEmptyMapping {
		t.Fatalf("empty mapping: got %v, want ErrEmptyMapping", resp.Err)
	}
	bad := make(mcast.Mapping, n)
	bad[0] = n // out of range
	if resp := e.RouteMulticast(bad, identityData(n)); resp.Err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestMcastFrameServer(t *testing.T) {
	net := core.New(3)
	rec := netsim.NewRecorder(net, 2)
	e := newMcastEngine(t, 3, rec)
	n := net.N()

	fs := e.NewMcastFrameServer()
	if err := fs.ServePrepared([]int{0}); err == nil {
		t.Fatal("ServePrepared before Prepare succeeded")
	}

	m := mcast.Mapping{1, 1, 1, 4, -1, 4, 6, -1}
	if err := fs.Prepare(m); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	outs := []int{0, 1, 2, 3, 5, 6}
	if err := fs.ServePrepared(outs); err != nil {
		t.Fatalf("ServePrepared: %v", err)
	}

	// Memoized repeat: same mapping, partial output set.
	if err := fs.Prepare(m); err != nil {
		t.Fatalf("repeat Prepare: %v", err)
	}
	if err := fs.ServePrepared([]int{3, 5}); err != nil {
		t.Fatalf("partial ServePrepared: %v", err)
	}

	st := e.Stats()
	if st.McastFrames != 2 {
		t.Fatalf("McastFrames = %d, want 2", st.McastFrames)
	}
	if want := int64(len(outs) + 2); st.McastCopies != want {
		t.Fatalf("McastCopies = %d, want %d", st.McastCopies, want)
	}

	if err := fs.Prepare(make(mcast.Mapping, n-1)); err == nil {
		t.Fatal("short mapping accepted")
	}
	if err := fs.ServePrepared([]int{0}); err == nil {
		t.Fatal("ServePrepared after failed Prepare succeeded")
	}
}

func TestMulticastLadderRecorder(t *testing.T) {
	net := core.New(3)
	rec := netsim.NewRecorder(net, 2)
	e := newMcastEngine(t, 3, rec)
	n := net.N()

	lad := e.LadderRecorder()
	if lad == nil {
		t.Fatal("LadderRecorder nil with accounting enabled")
	}
	if lad.Stages() != 3 || lad.SwitchesPerStage() != n/2 {
		t.Fatalf("ladder geometry %dx%d, want %dx%d", lad.Stages(), lad.SwitchesPerStage(), 3, n/2)
	}

	// A full broadcast programs broadcast switches; routing it twice
	// flips ladder states on the first pass only.
	m := make(mcast.Mapping, n)
	for out := range m {
		m[out] = 5
	}
	for pass := 0; pass < 2; pass++ {
		if resp := e.RouteMulticast(m, identityData(n)); resp.Err != nil {
			t.Fatalf("pass %d: %v", pass, resp.Err)
		}
	}

	var trav, bcast int64
	for s := 0; s < lad.Stages(); s++ {
		tot := lad.StageTotals(s)
		trav += tot.Traversed
		bcast += tot.Bcast
	}
	// Each of the two passes walks all n outputs through every ladder
	// stage: n traversals per stage per pass.
	if want := int64(2 * n * lad.Stages()); trav != want {
		t.Fatalf("ladder traversals = %d, want %d", trav, want)
	}
	if bcast == 0 {
		t.Fatal("broadcast mapping recorded no ladder Bcast transitions")
	}

	// The main recorder saw the two B(n) phases of both passes.
	var mainTrav int64
	for s := 0; s < rec.Stages(); s++ {
		mainTrav += rec.StageTotals(s).Traversed
	}
	if want := int64(2 * 2 * n * rec.Stages()); mainTrav != want {
		t.Fatalf("main recorder traversals = %d, want %d", mainTrav, want)
	}
}

func TestMulticastCacheKeying(t *testing.T) {
	e := newMcastEngine(t, 3, nil)
	n := e.Network().N()

	// A mapping that is also a valid permutation must not collide with
	// the unicast plan for the same vector: route the permutation via
	// the mapping path and via Route, then re-check both still serve.
	m := make(mcast.Mapping, n)
	for i := range m {
		m[i] = n - 1 - i
	}
	if resp := e.RouteMulticast(m, identityData(n)); resp.Err != nil {
		t.Fatalf("mapping route: %v", resp.Err)
	}
	dest := make([]int, n)
	for i := range dest {
		dest[i] = n - 1 - i
	}
	resp := e.Route(dest, identityData(n))
	if resp.Err != nil {
		t.Fatalf("unicast route: %v", resp.Err)
	}
	if r2 := e.RouteMulticast(m, identityData(n)); r2.Err != nil || !r2.CacheHit {
		t.Fatalf("mapping re-route: hit=%v err=%v", r2.CacheHit, r2.Err)
	}
}

// fanoutMapping draws the benchmark's fan-out shape: 32 sources (all of
// them when N < 32) feed about three quarters of the outputs, the rest
// stay idle.
func fanoutMapping(n int, rng *rand.Rand) mcast.Mapping {
	srcs := rng.Perm(n)[:min(32, n)]
	m := make(mcast.Mapping, n)
	for out := range m {
		m[out] = -1
		if rng.Intn(4) != 0 {
			m[out] = srcs[rng.Intn(len(srcs))]
		}
	}
	m[rng.Intn(n)] = srcs[0] // never empty
	return m
}

// broadcastMapping sends root to every output.
func broadcastMapping(n, root int) mcast.Mapping {
	m := make(mcast.Mapping, n)
	for out := range m {
		m[out] = root
	}
	return m
}

// mixedMappings returns count mappings of N=n, alternating broadcasts
// from distinct roots (while roots last) and fan-out maps.
func mixedMappings(n, count int, rng *rand.Rand) []mcast.Mapping {
	roots := rng.Perm(n)
	maps := make([]mcast.Mapping, count)
	for i := range maps {
		if i%2 == 0 && i/2 < n {
			maps[i] = broadcastMapping(n, roots[i/2])
		} else {
			maps[i] = fanoutMapping(n, rng)
		}
	}
	return maps
}

// refMcastPass replays one copy-network pass of the compiled plan p
// into rec and lad the way the engine did before plans were kept
// packed: p's words unpacked switch by switch, flips from
// core.States.Pack and a switch-by-switch four-state pack, then each
// output in outs walked backward through the [][]bool settings with
// one Traverse per hop.
func refMcastPass(net *core.Network, rec, lad *netsim.Recorder, p *mcast.Plan, outs []int) {
	distSt, permSt, ladder := unpackPhases(net, p.Words)
	rec.RecordFlips(distSt.Pack(make([]uint64, distSt.PackedLen())))
	words := net.StageWords()
	lo, hi := make([]uint64, lad.MaskWords()), make([]uint64, lad.MaskWords())
	for s := range ladder {
		for i, st := range ladder[s] {
			bit := uint64(1) << uint(i%64)
			if st&1 != 0 {
				lo[s*words+i/64] |= bit
			}
			if st.Broadcast() {
				hi[s*words+i/64] |= bit
			}
		}
	}
	lad.RecordMcastFlips(lo, hi)
	rec.RecordFlips(permSt.Pack(make([]uint64, permSt.PackedLen())))
	back := func(st core.States, y int) int {
		for s := net.Stages() - 1; s >= 0; s-- {
			rec.Traverse(s, y>>1)
			if st[s][y>>1] {
				y ^= 1
			}
			if s > 0 {
				y = net.LinkInv(s - 1)[y]
			}
		}
		return y
	}
	for _, out := range outs {
		y := back(permSt, out)
		for j := net.LogN() - 1; j >= 0; j-- {
			lad.Traverse(j, y>>1)
			y = bits.RotRight(ladder[j][y>>1].FeedLine(y), net.LogN())
		}
		back(distSt, y)
	}
}

// TestMcastCountsMatchReference serves a seeded sequence of 96
// mappings at N=8 to 64 (broadcasts, partial broadcasts, fan-outs,
// partial and full permutations, and back-to-back repeats) through
// RouteMulticast and through a McastFrameServer, each engine with its
// own recorders. After every mapping each recorder's Snapshot must
// equal that of a reference replaying the same passes with the
// unpacked [][]bool algorithm (refMcastPass). The frame server lists
// every assigned output on even steps and the first half of them on
// odd ones.
func TestMcastCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for logN := 3; logN <= 6; logN++ {
		net := core.New(logN)
		n := net.N()
		route := newMcastEngine(t, logN, netsim.NewRecorder(net, 1))
		frame := newMcastEngine(t, logN, netsim.NewRecorder(net, 1))
		fs := frame.NewMcastFrameServer()
		refRec := [2]*netsim.Recorder{netsim.NewRecorder(net, 1), netsim.NewRecorder(net, 1)}
		refLad := [2]*netsim.Recorder{netsim.NewRecorderGeom(logN, n/2), netsim.NewRecorderGeom(logN, n/2)}
		var m mcast.Mapping
		for step := 0; step < 24; step++ {
			switch step % 6 {
			case 0:
				m = broadcastMapping(n, rng.Intn(n))
			case 1:
				m = broadcastMapping(n, rng.Intn(n))
				for out := range m {
					if rng.Intn(2) == 0 && out > 0 {
						m[out] = -1
					}
				}
			case 2:
				m = fanoutMapping(n, rng)
			case 3:
				m = mcast.Mapping(rng.Perm(n))
			case 4:
				m = mcast.Mapping(rng.Perm(n))
				for out := range m {
					if rng.Intn(3) == 0 && out > 0 {
						m[out] = -1
					}
				}
			case 5: // repeat the previous mapping: a cache hit and a frame memo hit
			}
			p, err := mcast.Compile(net, m)
			if err != nil {
				t.Fatal(err)
			}
			var outs []int
			for out, src := range m {
				if src >= 0 {
					outs = append(outs, out)
				}
			}
			if resp := route.RouteMulticast(m, identityData(n)); resp.Err != nil {
				t.Fatalf("N=%d step %d: RouteMulticast: %v", n, step, resp.Err)
			}
			refMcastPass(net, refRec[0], refLad[0], p, outs)
			if step%2 == 1 {
				outs = outs[:(len(outs)+1)/2]
			}
			if err := fs.Prepare(m); err != nil {
				t.Fatalf("N=%d step %d: Prepare: %v", n, step, err)
			}
			if err := fs.ServePrepared(outs); err != nil {
				t.Fatalf("N=%d step %d: ServePrepared: %v", n, step, err)
			}
			refMcastPass(net, refRec[1], refLad[1], p, outs)
			for i, e := range []*Engine[int]{route, frame} {
				path := []string{"route", "frame"}[i]
				if got, want := e.Recorder().Snapshot(), refRec[i].Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("N=%d step %d, %s path: recorder %+v, reference %+v", n, step, path, got, want)
				}
				if got, want := e.LadderRecorder().Snapshot(), refLad[i].Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("N=%d step %d, %s path: ladder %+v, reference %+v", n, step, path, got, want)
				}
			}
		}
	}
}
