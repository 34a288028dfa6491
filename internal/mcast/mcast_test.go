package mcast

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gcn"
	"repro/internal/parsetup"
	"repro/internal/perm"
)

// checkPlan compiles m, routes it at gate level, and checks multiset
// delivery, the backward walk of the packed plan on every assigned
// output, the two B(n) phases' words against the PRAM-rounds looping
// setup of Dist and Perm (internal/parsetup), and that CompilePacked
// writes the same words over a buffer with every bit set.
func checkPlan(t *testing.T, net *core.Network, m Mapping) *Plan {
	t.Helper()
	p, err := Compile(net, m)
	if err != nil {
		t.Fatalf("Compile(%v): %v", m, err)
	}
	res := p.Route(net)
	if !res.OK() {
		t.Fatalf("mapping %v: misrouted sources %v (delivered %v)", m, res.Misrouted, res.Delivered)
	}
	outs, srcs := walkAssigned(net, p, m)
	for k, out := range outs {
		if srcs[k] != m[out] {
			t.Fatalf("mapping %v: Walk(%d) = %d, want %d", m, out, srcs[k], m[out])
		}
	}
	dist, permW, _, _ := Phases(net, p.Words)
	for _, phase := range []struct {
		d     perm.Perm
		words []uint64
	}{{p.Dist, dist}, {p.Perm, permW}} {
		st, _, err := parsetup.Setup(net, phase.d)
		if err != nil {
			t.Fatal(err)
		}
		if want := st.Pack(make([]uint64, st.PackedLen())); !slices.Equal(phase.words, want) {
			t.Fatalf("mapping %v: B(n) phase for %v holds %#x, parsetup sets %#x", m, phase.d, phase.words, want)
		}
	}
	dirty := make([]uint64, PackedLen(net))
	for i := range dirty {
		dirty[i] = ^uint64(0)
	}
	if err := NewCompiler(net).CompilePacked(m, dirty); err != nil || !slices.Equal(dirty, p.Words) {
		t.Fatalf("mapping %v: CompilePacked over a dirty buffer wrote %#x (err %v), Compile %#x", m, dirty, err, p.Words)
	}
	return p
}

// walkAssigned walks every output m assigns back through p's words,
// returning the outputs and the sources Walk found.
func walkAssigned(net *core.Network, p *Plan, m Mapping) (outs, srcs []int) {
	for out, src := range m {
		if src >= 0 {
			outs = append(outs, out)
		}
	}
	srcs = make([]int, len(outs))
	Walk(net, p.Words, outs, srcs, nil, nil)
	return outs, srcs
}

// compositions enumerates every ordered sequence of positive fan-outs
// summing to at most max and calls fn with each.
func compositions(max int, fn func(fans []int)) {
	var rec func(remaining int, cur []int)
	rec = func(remaining int, cur []int) {
		if len(cur) > 0 {
			fn(cur)
		}
		for f := 1; f <= remaining; f++ {
			rec(remaining-f, append(cur, f))
		}
	}
	rec(max, nil)
}

// Every fan-out profile at N <= 16, with both contiguous and scattered
// destination sets, must compile without ladder conflicts and deliver
// the exact multiset. This is the exhaustive check of the interval-
// splitting copy ladder (the fan profile alone determines the ladder).
func TestCompileExhaustiveProfiles(t *testing.T) {
	for n := 1; n <= 4; n++ {
		net := core.New(n)
		size := net.N()
		rng := rand.New(rand.NewSource(int64(n)))
		count := 0
		compositions(size, func(fans []int) {
			count++
			// Contiguous destinations, sources 0..k-1 in order.
			m := make(Mapping, size)
			for i := range m {
				m[i] = -1
			}
			out := 0
			for s, f := range fans {
				for c := 0; c < f; c++ {
					m[out] = s
					out++
				}
			}
			checkPlan(t, net, m)

			// Scattered destinations and scattered source indices: the
			// ladder is identical, the dist and permute phases are not.
			outs := rng.Perm(size)
			srcs := rng.Perm(size)
			sm := make(Mapping, size)
			for i := range sm {
				sm[i] = -1
			}
			out = 0
			for s, f := range fans {
				for c := 0; c < f; c++ {
					sm[outs[out]] = srcs[s]
					out++
				}
			}
			checkPlan(t, net, sm)
		})
		t.Logf("n=%d: %d fan profiles x 2 layouts", n, count)
	}
}

// Random mappings at larger sizes, including unassigned outputs.
func TestCompileRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 6, 8} {
		net := core.New(n)
		size := net.N()
		for trial := 0; trial < 40; trial++ {
			m := make(Mapping, size)
			for out := range m {
				m[out] = rng.Intn(size+size/4) - size/4 // bias toward assigned
				if m[out] < 0 {
					m[out] = -1
				}
			}
			checkPlan(t, net, m)
		}
	}
}

// The one-source extremes: full broadcast from every source, and every
// single-destination unicast.
func TestCompileBroadcastExtremes(t *testing.T) {
	net := core.New(3)
	size := net.N()
	for s := 0; s < size; s++ {
		m := make(Mapping, size)
		for out := range m {
			m[out] = s
		}
		p := checkPlan(t, net, m)
		if p.BcastSwitches == 0 {
			t.Fatalf("full broadcast from %d used no broadcast switches", s)
		}
	}
	// A permutation compiles with zero broadcast switches.
	m := make(Mapping, size)
	for out := range m {
		m[out] = (out + 3) % size
	}
	if p := checkPlan(t, net, m); p.BcastSwitches != 0 {
		t.Fatalf("permutation used %d broadcast switches", p.BcastSwitches)
	}
}

// Cross-validation against the gate-level generalized connection
// network of internal/gcn: every source, every destination-set size at
// N=8 (the satellite's exhaustive grid), both fabrics must deliver the
// same values at the requested outputs.
func TestCrossValidateGCNExhaustiveN8(t *testing.T) {
	const n = 3
	net := core.New(n)
	g := gcn.New(n)
	size := net.N()
	for src := 0; src < size; src++ {
		for set := 1; set < 1<<uint(size); set++ {
			m := make(Mapping, size)
			req := make(gcn.Request, size)
			for out := 0; out < size; out++ {
				if set&(1<<uint(out)) != 0 {
					m[out] = src
					req[out] = src
				} else {
					m[out] = -1
					req[out] = out // arbitrary total filler for gcn
				}
			}
			p, err := Compile(net, m)
			if err != nil {
				t.Fatalf("src %d set %08b: %v", src, set, err)
			}
			res := p.Route(net)
			if !res.OK() {
				t.Fatalf("src %d set %08b: misrouted %v", src, set, res.Misrouted)
			}
			gp, err := g.Connect(req)
			if err != nil {
				t.Fatalf("gcn Connect src %d set %08b: %v", src, set, err)
			}
			data := make([]int, size)
			for i := range data {
				data[i] = 100 + i
			}
			carried := gcn.Carry(gp, data)
			for out := 0; out < size; out++ {
				if m[out] < 0 {
					continue
				}
				if res.Delivered[out] != m[out] {
					t.Fatalf("src %d set %08b: mcast delivered %d at %d", src, set, res.Delivered[out], out)
				}
				if carried[out] != data[src] {
					t.Fatalf("src %d set %08b: gcn carried %d at %d, want %d", src, set, carried[out], out, data[src])
				}
			}
		}
	}
}

// Multi-source random mappings must agree with gcn on every assigned
// output.
func TestCrossValidateGCNRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 4, 5} {
		net := core.New(n)
		g := gcn.New(n)
		size := net.N()
		for trial := 0; trial < 50; trial++ {
			req := make(gcn.Request, size)
			m := make(Mapping, size)
			for out := range req {
				req[out] = rng.Intn(size)
				m[out] = req[out]
			}
			p := checkPlan(t, net, m)
			gp, err := g.Connect(req)
			if err != nil {
				t.Fatalf("gcn Connect: %v", err)
			}
			data := make([]int, size)
			for i := range data {
				data[i] = 1000 + i
			}
			carried := gcn.Carry(gp, data)
			applied := Apply(p.Map, data, nil)
			for out := range m {
				if applied[out] != carried[out] {
					t.Fatalf("n=%d req=%v: mcast %d vs gcn %d at output %d",
						n, req, applied[out], carried[out], out)
				}
			}
		}
	}
}

func TestFromEntriesRejections(t *testing.T) {
	cases := []struct {
		name    string
		entries []Entry
	}{
		{"src out of range", []Entry{{Src: 8, Dsts: []int{0}}}},
		{"negative src", []Entry{{Src: -1, Dsts: []int{0}}}},
		{"empty dsts", []Entry{{Src: 0, Dsts: nil}}},
		{"dst out of range", []Entry{{Src: 0, Dsts: []int{8}}}},
		{"negative dst", []Entry{{Src: 0, Dsts: []int{-2}}}},
		{"duplicate dst within entry", []Entry{{Src: 0, Dsts: []int{3, 3}}}},
		{"duplicate dst across entries", []Entry{{Src: 0, Dsts: []int{3}}, {Src: 1, Dsts: []int{3}}}},
		{"duplicate src", []Entry{{Src: 0, Dsts: []int{1}}, {Src: 0, Dsts: []int{2}}}},
	}
	for _, c := range cases {
		if _, err := FromEntries(8, c.entries); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	m, err := FromEntries(8, []Entry{{Src: 2, Dsts: []int{0, 5}}, {Src: 7, Dsts: []int{7}}})
	if err != nil {
		t.Fatal(err)
	}
	want := Mapping{2, -1, -1, -1, -1, 2, -1, 7}
	if !m.Equal(want) {
		t.Fatalf("got %v, want %v", m, want)
	}
	back := m.Entries()
	if len(back) != 2 || back[0].Src != 2 || back[1].Src != 7 {
		t.Fatalf("Entries round trip: %+v", back)
	}
}

func TestMappingValidate(t *testing.T) {
	if err := (Mapping{0, 1, 2}).Validate(8); err == nil {
		t.Error("wrong length accepted")
	}
	if err := (Mapping{0, 1, 2, 8, -1, 0, 0, 0}).Validate(8); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := (Mapping{0, 1, 2, -1, -1, 0, 0, 0}).Validate(8); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
}
