package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mcast"
	"repro/internal/netsim"
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
	if pl := e.cache.getMapping(hashMapping(m), m); pl == nil || pl.Kind != PlanMulticast || pl.Mcast == nil {
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

// TestRouteMulticastReplay serves a full broadcast, then replays the
// cached copy-network plan gate by gate: every source must reach
// exactly the outputs the mapping assigns it.
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
	if res := pl.Mcast.Route(e.net); !res.OK() {
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
