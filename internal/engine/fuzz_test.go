package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mcast"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FuzzPackedPlan routes a permutation of N = 2^n, n in 1..6, built from
// the fuzz bytes, twice — a miss, then a hit — through an engine with a
// flight recorder, as benesd runs it. Both payloads must equal
// perm.Apply; the cached plan, unpacked, must hold the permutation and
// a setting that realizes it gate by gate; and its words must be its
// oracle's (oracleSetting) bit for bit.
func FuzzPackedPlan(f *testing.F) {
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(3), []byte{7, 3, 5, 0, 2, 6, 1})
	f.Add(uint8(6), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, logN uint8, seed []byte) {
		n := int(logN%6) + 1
		d := perm.Identity(1 << n)
		// Fisher-Yates, drawing from the fuzz bytes in turn.
		for i := len(d) - 1; i > 0; i-- {
			var b byte
			if len(seed) > 0 {
				b = seed[(len(d)-1-i)%len(seed)]
			}
			j := int(b) % (i + 1)
			d[i], d[j] = d[j], d[i]
		}
		eng, err := New[int](Config{LogN: n, Recorder: netsim.NewRecorder(core.New(n), 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		data := payload(len(d))
		want := perm.Apply(d, data)
		for pass, wantHit := range []bool{false, true} {
			resp := eng.Route(d, data)
			if resp.Err != nil || resp.CacheHit != wantHit {
				t.Fatalf("pass %d for %v: hit=%v err=%v, want hit=%v", pass, d, resp.CacheHit, resp.Err, wantHit)
			}
			for i := range want {
				if resp.Data[i] != want[i] {
					t.Fatalf("pass %d for %v: output %d = %d, want %d", pass, d, i, resp.Data[i], want[i])
				}
			}
		}
		pl := eng.cache.get(hashPerm(d), d)
		if pl == nil {
			t.Fatalf("no cached plan for %v", d)
		}
		dest, st := unpackPlan(eng.net, pl)
		if !dest.Equal(d) {
			t.Fatalf("plan for %v holds destination vector %v", d, dest)
		}
		if res := eng.net.ExternalRoute(dest, st); !res.OK() || !res.Realized.Equal(d) {
			t.Fatalf("%v plan for %v realizes %v", pl.Kind, d, res.Realized)
		}
		if want := oracleSetting(t, eng.net, pl.Kind, d); !slices.Equal(pl.setting, want) {
			t.Fatalf("%v plan for %v holds words %#x, its oracle %#x", pl.Kind, d, pl.setting, want)
		}
	})
}

// FuzzPackedMcastPlan builds a mapping of N = 2^n, n in 1..6, from the
// fuzz bytes: each byte, taken mod N+1, names an output's source or
// (at N) leaves it idle, and at least one output is assigned. It
// serves the mapping twice through RouteMulticast (a miss, then a hit)
// and once through a McastFrameServer listing every assigned output,
// each engine with its recorders. Both payloads must equal mcast.Apply; the
// walk of the cached packed plan must return m[out] on every assigned
// output; the cached plan must hold m and mcast.Compile's words; and
// the miss and the frame must add equal recorder counts.
func FuzzPackedMcastPlan(f *testing.F) {
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(3), []byte{3, 3, 0, 3, 5, 0, 8, 5})
	f.Add(uint8(6), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, logN uint8, seed []byte) {
		n := int(logN%6) + 1
		net := core.New(n)
		size := net.N()
		m := make(mcast.Mapping, size)
		for out := range m {
			m[out] = -1
			if len(seed) > 0 {
				if src := int(seed[out%len(seed)]) % (size + 1); src < size {
					m[out] = src
				}
			}
		}
		if m.Assigned() == 0 {
			m[0] = 0
		}
		newEngine := func() *Engine[int] {
			eng, err := New[int](Config{LogN: n, Recorder: netsim.NewRecorder(net, 1)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			return eng
		}
		route, frame := newEngine(), newEngine()
		data := payload(size)
		want := mcast.Apply(m, data, nil)
		var missRec, missLad netsim.RecorderSnapshot
		for pass, wantHit := range []bool{false, true} {
			resp := route.RouteMulticast(m, data)
			if resp.Err != nil || resp.CacheHit != wantHit {
				t.Fatalf("pass %d for %v: hit=%v err=%v, want hit=%v", pass, m, resp.CacheHit, resp.Err, wantHit)
			}
			if !reflect.DeepEqual(resp.Data, want) {
				t.Fatalf("pass %d for %v: payload %v, want %v", pass, m, resp.Data, want)
			}
			if pass == 0 {
				missRec, missLad = route.Recorder().Snapshot(), route.LadderRecorder().Snapshot()
			}
		}
		pl := route.cache.getMapping(hashMapping(m), m)
		if pl == nil {
			t.Fatalf("no cached plan for %v", m)
		}
		var outs []int
		for out, src := range m {
			if src >= 0 {
				outs = append(outs, out)
			}
		}
		srcs := make([]int, len(outs))
		mcast.Walk(net, pl.setting, outs, srcs, nil, nil)
		for k, out := range outs {
			if srcs[k] != m[out] {
				t.Fatalf("plan for %v: Walk(%d) = %d, want %d", m, out, srcs[k], m[out])
			}
		}
		p, err := mcast.Compile(net, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := unpackMcastPlan(net, pl); !got.Map.Equal(m) || !slices.Equal(got.Words, p.Words) {
			t.Fatalf("plan for %v does not hold its mapping and compiled words", m)
		}
		fs := frame.NewMcastFrameServer()
		if err := fs.Prepare(m); err != nil {
			t.Fatal(err)
		}
		if err := fs.ServePrepared(outs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frame.Recorder().Snapshot(), missRec) ||
			!reflect.DeepEqual(frame.LadderRecorder().Snapshot(), missLad) {
			t.Fatalf("mapping %v: the frame and the miss recorded different counts", m)
		}
	})
}
