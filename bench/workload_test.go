package main

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/perm"
)

func bodies(w *workload, seed int64, id, n int) [][]byte {
	st := newStream(w, newShared(w, seed), seed, id)
	out := make([][]byte, n)
	for i := range out {
		out[i] = encode(st.next())
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		for id := 0; id < conns; id++ {
			a, b, c := bodies(w, 7, id, 60), bodies(w, 7, id, 60), bodies(w, 8, id, 60)
			same := true
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("%s stream %d: op %d differs between two runs of seed 7", w.name, id, i)
				}
				same = same && bytes.Equal(a[i], c[i])
			}
			if same {
				t.Errorf("%s stream %d: seeds 7 and 8 give the same 60 requests", w.name, id)
			}
		}
		if bytes.Equal(bytes.Join(bodies(w, 7, 0, 20), nil), bytes.Join(bodies(w, 7, 1, 20), nil)) {
			t.Errorf("%s: both connections send the same requests", w.name)
		}
	}
}

func TestRouteWarmSetClasses(t *testing.T) {
	w := workloadByName("route-warm")
	for seed := int64(1); seed <= 3; seed++ {
		set := newShared(w, seed)
		var selfRouting, looping int
		seen := map[string]bool{}
		for _, o := range set.warm {
			switch c := perm.Classify(o.dest).Class; {
			case c.SelfRoutable():
				selfRouting++
			case c == perm.ClassLooping:
				looping++
			default:
				t.Fatalf("seed %d: warm permutation classified %v", seed, c)
			}
			if o.selfRoutes != perm.Classify(o.dest).Class.SelfRoutable() {
				t.Fatalf("seed %d: op expectation disagrees with perm.Classify", seed)
			}
			seen[o.dest.String()] = true
		}
		if selfRouting != 32 || looping != 32 || len(seen) != 64 {
			t.Errorf("seed %d: %d self-routable, %d looping-only, %d distinct; want 32, 32, 64", seed, selfRouting, looping, len(seen))
		}
	}
}

func TestRouteColdNeverRepeats(t *testing.T) {
	w := workloadByName("route-cold")
	set := newShared(w, 1)
	seen := map[uint64]bool{}
	add := func(o *op) {
		h := fnv.New64a()
		h.Write(encode(o))
		k := h.Sum64()
		if seen[k] {
			t.Fatalf("permutation repeats after %d requests", len(seen))
		}
		seen[k] = true
	}
	add(setupOps(w, set, 1)[0])
	for id := 0; id < conns; id++ {
		st := newStream(w, set, 1, id)
		for i := 0; i < 1500; i++ {
			o := st.next()
			if o.hit || o.selfRoutes != (i%4 == 3) {
				t.Fatalf("stream %d op %d: hit %v self-routes %v", id, i, o.hit, o.selfRoutes)
			}
			if i < 40 && perm.InF(o.dest) != o.selfRoutes {
				t.Fatalf("stream %d op %d: InF %v, expected self-routes %v", id, i, !o.selfRoutes, o.selfRoutes)
			}
			add(o)
		}
	}
}

func TestMixedJournalProportions(t *testing.T) {
	w := workloadByName("mixed-journal")
	set := newShared(w, 1)
	for id := 0; id < conns; id++ {
		st := newStream(w, set, 1, id)
		counts := map[string]int{}
		const blocks, perBlock = 50, 20
		for i := 0; i < blocks*perBlock; i++ {
			o := st.next()
			k := o.kind.String()
			if o.kind == kindRoute && !o.hit {
				k = "fresh"
			}
			counts[k]++
		}
		want := map[string]int{"route": 8 * blocks, "fresh": 2 * blocks, "send": 5 * blocks, "multicast": 3 * blocks, "broadcast": 2 * blocks}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("stream %d: %d %s ops in %d, want %d", id, counts[k], k, blocks*perBlock, n)
			}
		}
	}
}
