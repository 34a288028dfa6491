package mcast

import (
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/netsim"
)

// A compiled plan's control state is its three switch settings, and
// the serving layer keeps only those: the compiler writes them into one
// word slice, the distribute and permute B(n) settings as
// core.Network.SetupInto lays them out and the ladder's four-state
// switches as two such settings, lo holding each switch's state&1 and
// hi its broadcast bit (core.McastStates.Pack's layout), in the order
//
//	dist | perm | ladder lo | ladder hi
//
// (2(2n−1) + 2n)·⌈N/128⌉ words, 92 at N=256 and 464 at N=1024. The
// flight recorder diffs each phase's words as they are (Phases), and
// Walk verifies delivery on them.

// PackedLen returns the number of words of a plan over net.
func PackedLen(net *core.Network) int {
	return (2*net.Stages() + 2*net.LogN()) * net.StageWords()
}

// Phases splits words, a plan packed for net, into its distribute and
// permute settings and its ladder's lo and hi words.
func Phases(net *core.Network, words []uint64) (dist, perm, lo, hi []uint64) {
	b, l := net.Stages()*net.StageWords(), net.LogN()*net.StageWords()
	return words[:b], words[b : 2*b], words[2*b : 2*b+l], words[2*b+l : 2*b+2*l]
}

// Walk follows each output outs[k] backward through words, a plan
// packed for net, and writes the input that feeds it to srcs[k]:
// permute B(n), then the copy ladder (whose backward direction stays a
// function through broadcast states), then distribute B(n), each B(n)
// phase by netsim.WalkBack. It walks all the outputs a stage at a
// time, so their independent chains of loads overlap. Every hop counts
// one traversal of its switch, in rec for the two B(n) phases and in
// lad for the ladder; a nil recorder counts nothing. For a correct
// plan of mapping m, srcs[k] is m[outs[k]] on every assigned output,
// so walking every assigned output proves the delivered output
// multiset is the requested one.
func Walk(net *core.Network, words []uint64, outs, srcs []int, rec, lad *netsim.Recorder) {
	dist, perm, lo, hi := Phases(net, words)
	srcs = srcs[:len(outs)]
	copy(srcs, outs)
	netsim.WalkBack(net, perm, srcs, rec, nil)
	w, n, tr := net.StageWords(), net.LogN(), lad.Traversals()
	for j := n - 1; j >= 0; j-- {
		loRow, hiRow := lo[j*w:(j+1)*w], hi[j*w:(j+1)*w]
		for k, y := range srcs {
			sw := y >> 1
			tr.Add(j, sw)
			// The state's low bit crosses a binary switch; on a
			// broadcast switch it names the input both outputs copy.
			i, b := sw>>6, uint(sw)&63
			if low := int(loRow[i] >> b & 1); hiRow[i]>>b&1 == 0 {
				y ^= low
			} else {
				y = y&^1 | low
			}
			srcs[k] = bits.RotRight(y, n)
		}
	}
	netsim.WalkBack(net, dist, srcs, rec, nil)
}
