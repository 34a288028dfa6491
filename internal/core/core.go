// Package core implements the paper's primary contribution: an N = 2^n
// input/output Benes permutation network whose switches set themselves
// dynamically from destination tags (Nassimi & Sahni, "A Self-Routing
// Benes Network and Parallel Permutation Algorithms").
//
// The network B(n) consists of 2n-1 stages of N/2 two-state switches
// (Fig. 1 of the paper): a stage of switches, two copies of B(n-1), and
// a final stage of switches; B(1) is a single switch. The total switch
// count is N log N - N/2.
//
// Self-routing (Section I): each input carries a destination tag; a
// switch in stage b or stage 2n-2-b (0 <= b <= n-1) sets its state from
// bit b of the destination tag appearing on its *upper* input — state 0
// (straight) if the bit is 0, state 1 (crossed) otherwise. The class of
// permutations realizable this way is F(n) (see package perm).
//
// The same hardware also supports:
//   - the "omega bit" (Section II): forcing stages 0..n-2 straight makes
//     every Omega(n) permutation realizable;
//   - external setup (Section I): disabling the self-setting logic and
//     loading switch states computed by the classic looping algorithm
//     (Waksman) realizes all N! permutations;
//   - pipelined operation (Section IV): with registers between stages a
//     new vector can enter every clock period.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bits"
	"repro/internal/perm"
)

// Network is a wired Benes network B(n). The wiring is immutable after
// construction; switch states live in per-route State values so a single
// Network can be shared by concurrent routings.
type Network struct {
	n      int // log2 of the input count
	size   int // N = 2^n
	stages int // 2n - 1
	// link[s][y] is the input line position at stage s+1 that is driven
	// by output line y of stage s, for s in [0, stages-1). Within a
	// stage, switch i has input lines 2i and 2i+1 (upper, lower) and
	// output lines 2i and 2i+1.
	link [][]int
	// linkInv[s][x] is the stage-s output line that drives stage-(s+1)
	// input line x — the inverse of link, for walking paths backward
	// from an output (the only well-defined direction once broadcast
	// states fan a single input out to both switch outputs).
	linkInv [][]int
	// ident is the identity on N lines, the link out of the last stage:
	// its output lines are the network's.
	ident []int
}

// last is the network New built most recently. The wiring is
// immutable, so callers asking for one size share one copy, and
// keeping only the last bounds what a process of many sizes holds.
var last atomic.Pointer[Network]

// New returns B(n) for n >= 1, wired afresh unless the network New
// built last has that size. The recursive definition of Fig. 1 is
// flattened into explicit inter-stage wiring: the first boundary of
// each recursion level is an unshuffle within the level's block (upper
// switch outputs to the upper subnetwork, lower outputs to the lower),
// and the last boundary is the inverse shuffle.
func New(n int) *Network {
	if n < 1 {
		panic("core: New requires n >= 1")
	}
	if b := last.Load(); b != nil && b.n == n {
		return b
	}
	size := 1 << uint(n)
	stages := 2*n - 1
	b := &Network{n: n, size: size, stages: stages}
	b.link = make([][]int, stages-1)
	for s := range b.link {
		b.link[s] = make([]int, size)
		for y := range b.link[s] {
			b.link[s][y] = -1
		}
	}
	b.wire(0, n, 0)
	// Every link entry must have been written exactly once.
	for s := range b.link {
		for y, v := range b.link[s] {
			if v < 0 {
				panic(fmt.Sprintf("core: unwired line %d after stage %d", y, s))
			}
		}
	}
	b.linkInv = make([][]int, stages-1)
	for s := range b.linkInv {
		b.linkInv[s] = make([]int, size)
		for y, x := range b.link[s] {
			b.linkInv[s][x] = y
		}
	}
	b.ident = perm.Identity(size)
	last.Store(b)
	return b
}

// wire recursively installs the wiring of the B(m) block occupying lines
// [lo, lo+2^m) and stages [s0, s0+2m-2].
func (b *Network) wire(lo, m, s0 int) {
	if m == 1 {
		return
	}
	size := 1 << uint(m)
	// Boundary after the block's first stage: output line lo+x goes to
	// the upper B(m-1) (lines [lo, lo+size/2)) when x is even, to the
	// lower B(m-1) otherwise — a rotate-right of x within m bits.
	for x := 0; x < size; x++ {
		b.link[s0][lo+x] = lo + bits.RotRight(x, m)
	}
	// Boundary before the block's last stage: output j of the upper
	// subnetwork feeds the upper input of final-stage switch j, output j
	// of the lower feeds its lower input — a rotate-left.
	last := s0 + 2*m - 3
	for x := 0; x < size; x++ {
		b.link[last][lo+x] = lo + bits.RotLeft(x, m)
	}
	b.wire(lo, m-1, s0+1)
	b.wire(lo+size/2, m-1, s0+1)
}

// N returns the number of inputs/outputs.
func (b *Network) N() int { return b.size }

// LogN returns n.
func (b *Network) LogN() int { return b.n }

// Stages returns the number of switch stages, 2 log N - 1.
func (b *Network) Stages() int { return b.stages }

// SwitchesPerStage returns N/2.
func (b *Network) SwitchesPerStage() int { return b.size / 2 }

// StageWords returns the number of 64-bit words one stage of a packed
// setting takes, ⌈N/128⌉ (pack.go's layout). A packed setting of the
// whole network is Stages()·StageWords() words.
func (b *Network) StageWords() int { return (b.size/2 + 63) / 64 }

// SwitchCount returns the total number of binary switches,
// N log N - N/2, matching the paper's Section I count.
func (b *Network) SwitchCount() int { return b.size*b.n - b.size/2 }

// GateDelay returns the transmission delay in switch traversals —
// one per stage, i.e. 2 log N - 1.
func (b *Network) GateDelay() int { return b.stages }

// ControlBit returns the destination-tag bit examined by switches in the
// given stage: bit b for stage b or stage 2n-2-b (Fig. 3), i.e.
// min(stage, 2n-2-stage).
func (b *Network) ControlBit(stage int) int {
	if stage < 0 || stage >= b.stages {
		panic("core: stage out of range")
	}
	if mirror := 2*b.n - 2 - stage; mirror < stage {
		return mirror
	}
	return stage
}

// LinkInv returns the inverse of the wiring after stage: LinkInv(stage)[x]
// is the stage-stage output line that drives stage-(stage+1) input line
// x. Backward path walks read it a stage at a time. The slice is the
// network's own; callers must not modify it.
func (b *Network) LinkInv(stage int) []int {
	return b.linkInv[stage]
}

// Wiring returns a deep copy of the inter-stage link maps:
// Wiring()[s][y] is the stage-s+1 input line fed by stage-s output line
// y. Package netsim uses this to build the goroutine-per-switch engine
// over the identical topology.
func (b *Network) Wiring() [][]int {
	w := make([][]int, len(b.link))
	for s := range b.link {
		w[s] = append([]int(nil), b.link[s]...)
	}
	return w
}

// States is a full switch-setting of the network: States[s][i] is true
// when switch i of stage s is crossed (state 1).
type States [][]bool

// NewStates allocates an all-straight (state 0) setting.
func (b *Network) NewStates() States {
	st := make(States, b.stages)
	for s := range st {
		st[s] = make([]bool, b.size/2)
	}
	return st
}

// Clone deep-copies a setting.
func (st States) Clone() States {
	out := make(States, len(st))
	for s := range st {
		out[s] = append([]bool(nil), st[s]...)
	}
	return out
}

// CountCrossed returns the number of switches in state 1.
func (st States) CountCrossed() int {
	c := 0
	for _, stage := range st {
		for _, crossed := range stage {
			if crossed {
				c++
			}
		}
	}
	return c
}
