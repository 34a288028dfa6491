package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// randomStates draws an arbitrary switch setting: every switch crossed
// with probability one half, whatever permutation it then realizes.
func randomStates(net *core.Network, rng *rand.Rand) core.States {
	st := net.NewStates()
	for s := range st {
		for i := range st[s] {
			st[s][i] = rng.Intn(2) == 1
		}
	}
	return st
}

// checkWalkBack walks every output of net back through st, packed, and
// checks it against the reference evaluator: output Realized[i] of
// ExternalRoute(d, st) walks back to input i.
func checkWalkBack(t *testing.T, net *core.Network, d perm.Perm, st core.States) {
	t.Helper()
	res := net.ExternalRoute(d, st)
	lines := append([]int(nil), res.Realized...)
	WalkBack(net, st.Pack(make([]uint64, st.PackedLen())), lines, nil, nil)
	for i, in := range lines {
		if in != i {
			t.Fatalf("N=%d d=%v: output %d walks back to input %d, ExternalRoute sends input %d there",
				net.N(), d, res.Realized[i], in, i)
		}
	}
}

// TestWalkBackMatchesExternalRoute checks the packed backward walk
// against ExternalRoute on every permutation of S_8, under the looping
// algorithm's setting for it and under an arbitrary setting, then on
// random permutations at every N from 2 to 1024.
func TestWalkBackMatchesExternalRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := core.New(3)
	perm.ForEach(net.N(), func(d perm.Perm) bool {
		checkWalkBack(t, net, d, net.Setup(d))
		checkWalkBack(t, net, d, randomStates(net, rng))
		return true
	})
	for n := 1; n <= 10; n++ {
		net := core.New(n)
		for k := 0; k < 20; k++ {
			d := perm.Random(net.N(), rng)
			checkWalkBack(t, net, d, net.Setup(d))
			checkWalkBack(t, net, d, randomStates(net, rng))
		}
	}
}

// checkWalkCounts walks outs back through st, packed as words (high
// bits past the stage's switches may be set: the walk must ignore
// them), with a recorder and a Paths attached. Each output must reach
// the input ExternalRoute sends to it, and each switch's traversal
// count, in the recorder and in the Paths words, must equal the walked
// packets' crossings of it in ExternalRoute's tag trace.
func checkWalkCounts(t *testing.T, net *core.Network, words []uint64, outs []int) {
	t.Helper()
	st := net.NewStates()
	st.Unpack(words)
	res := net.ExternalRoute(perm.Identity(net.N()), st)
	// Under the identity tags, input i's tag is i: its switch at stage
	// s is half the line TagTrace[s] carries i on.
	want := make([][]int64, net.Stages())
	for s := range want {
		want[s] = make([]int64, net.SwitchesPerStage())
	}
	inv := res.Realized.Inverse()
	for _, out := range outs {
		for s := range want {
			want[s][slices.Index(res.TagTrace[s], inv[out])>>1]++
		}
	}
	rec, frame := NewRecorder(net, 1), NewRecorder(net, 1)
	paths := frame.NewPaths()
	lines := append([]int(nil), outs...)
	WalkBack(net, words, lines, rec, paths)
	for k, out := range outs {
		if lines[k] != inv[out] {
			t.Fatalf("N=%d: output %d walks back to input %d, ExternalRoute feeds it from %d", net.N(), out, lines[k], inv[out])
		}
	}
	frame.RecordFrame(words, paths)
	for s := range want {
		if got := rec.TraversedRow(s); !slices.Equal(got, want[s]) {
			t.Fatalf("N=%d stage %d: recorder traversals %v, want %v", net.N(), s, got, want[s])
		}
		if got := frame.TraversedRow(s); !slices.Equal(got, want[s]) {
			t.Fatalf("N=%d stage %d: Paths traversals %v, want %v", net.N(), s, got, want[s])
		}
	}
}

// FuzzWalkBack walks arbitrary packed settings at N=2 to 64: the bytes
// fill the setting's words, garbage past each stage's switches
// included, and subset picks the outputs walked.
func FuzzWalkBack(f *testing.F) {
	f.Add(uint8(0), []byte{1}, uint64(3))
	f.Add(uint8(2), []byte{0xff, 0, 0x5a, 7}, uint64(0xf0))
	f.Add(uint8(5), []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 250, 13}, ^uint64(0))
	nets := make([]*core.Network, 6)
	for n := range nets {
		nets[n] = core.New(n + 1)
	}
	f.Fuzz(func(t *testing.T, logN uint8, setting []byte, subset uint64) {
		net := nets[int(logN)%len(nets)]
		words := make([]uint64, net.Stages()*((net.SwitchesPerStage()+63)/64))
		for k := range words {
			for b := 0; b < 8 && len(setting) > 0; b++ {
				words[k] |= uint64(setting[(8*k+b)%len(setting)]) << (8 * b)
			}
		}
		var outs []int
		for out := 0; out < net.N(); out++ {
			if subset>>out&1 == 1 {
				outs = append(outs, out)
			}
		}
		checkWalkCounts(t, net, words, outs)
	})
}

// TestWalkBackCounts walks every output of random settings at N=2 to
// 1024, so each switch carries exactly two tags, and a random half of
// them.
func TestWalkBackCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for n := 1; n <= 10; n++ {
		net := core.New(n)
		st := randomStates(net, rng)
		words := st.Pack(make([]uint64, st.PackedLen()))
		checkWalkCounts(t, net, words, perm.Identity(net.N()))
		checkWalkCounts(t, net, words, rng.Perm(net.N())[:net.N()/2])
	}
}
