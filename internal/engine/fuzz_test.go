package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FuzzPackedPlan routes a permutation of N = 2^n, n in 1..6, built from
// the fuzz bytes, twice — a miss, then a hit — through an engine in
// benesd's configuration: parallel setup with the sub-plan memo, at a
// serial cutoff of 2 lines so every miss outside F(n) forks and
// memoizes, and a flight recorder. Both payloads must equal
// perm.Apply; the cached plan, unpacked, must hold the permutation and
// a setting that realizes it gate by gate; and packing that setting
// again must give back the plan's words.
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
		eng, err := New[int](Config{
			LogN:          n,
			ParallelSetup: true,
			SetupMemo:     true,
			SetupCutoff:   2,
			Recorder:      netsim.NewRecorder(core.New(n), 1),
		})
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
		repacked := st.Pack(make([]uint64, st.PackedLen()))
		if len(repacked) != len(pl.setting) {
			t.Fatalf("plan for %v keeps %d words, its setting packs to %d", d, len(pl.setting), len(repacked))
		}
		for i := range repacked {
			if repacked[i] != pl.setting[i] {
				t.Fatalf("plan for %v: word %d = %#x, repacked %#x", d, i, pl.setting[i], repacked[i])
			}
		}
	})
}
