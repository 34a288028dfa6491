package core

import (
	"fmt"

	"repro/internal/perm"
)

// Setup computes switch states realizing an arbitrary permutation d on
// B(n) using the classic looping algorithm (Waksman; the paper's
// Section I cites it as the best known O(N log N) sequential setup).
// The returned setting, applied via ExternalRoute, realizes d exactly —
// this is the paper's remark that with the self-setting logic disabled
// the network realizes all N! permutations.
func (b *Network) Setup(d perm.Perm) States {
	if err := d.Validate(); err != nil {
		panic("core: Setup: " + err.Error())
	}
	if len(d) != b.size {
		panic(fmt.Sprintf("core: Setup: permutation length %d != N %d", len(d), b.size))
	}
	st := b.NewStates()
	b.SetupInto(d, st, NewSetupScratch(b))
	return st
}

// SetupScratch is the reusable working memory of one looping-algorithm
// run: the per-level destination buffers plus the loop-resolution
// arrays. A scratch belongs to one goroutine at a time; reusing it
// across calls makes SetupInto allocation-free, which matters on hot
// paths that set up a fresh permutation per frame (the packet fabric).
// SelfRouteInto borrows the two loop-resolution arrays as its tag
// buffers, so one scratch serves a self-routing attempt and the looping
// fallback after it.
type SetupScratch struct {
	invDest []int   // destination -> block-local input, reused per block
	up      []int   // loop-resolution direction per input, reused per block
	levels  [][]int // levels[depth] holds every block's dests at that depth
}

// NewSetupScratch allocates scratch sized for b. The total footprint is
// N*(log N + 2) ints.
func NewSetupScratch(b *Network) *SetupScratch {
	sc := &SetupScratch{
		invDest: make([]int, b.size),
		up:      make([]int, b.size),
		levels:  make([][]int, b.n),
	}
	for i := range sc.levels {
		sc.levels[i] = make([]int, b.size)
	}
	return sc
}

// SetupInto is Setup writing into caller-owned memory: st receives the
// switch setting (every switch is overwritten, so a dirty st is fine)
// and sc provides the working buffers. It performs no allocations,
// making it the right entry point for per-frame setup on serving paths.
// Like Setup it panics on an invalid permutation — callers on hot paths
// are expected to construct d correct by construction.
func (b *Network) SetupInto(d perm.Perm, st States, sc *SetupScratch) {
	if len(d) != b.size {
		panic(fmt.Sprintf("core: SetupInto: permutation length %d != N %d", len(d), b.size))
	}
	dests := sc.levels[0][:b.size]
	copy(dests, d)
	b.setupScratch(dests, 0, 0, b.n, st, sc)
}

// setupScratch solves the B(m) block whose inputs occupy lines
// [lo, lo+2^m) at stages [s0, s0+2m-2]. dests[k] is the block-local
// destination of the input at block-local position k. All working
// memory comes from sc: invDest and up are safe to share across blocks
// because their last use precedes the recursive calls, and the
// sub-permutations live in sc.levels[depth+1], segmented by lo so
// sibling blocks never overlap.
func (b *Network) setupScratch(dests []int, lo, s0, m int, st States, sc *SetupScratch) {
	size := 1 << uint(m)
	if m == 1 {
		// A single switch: inputs (0,1) to outputs {dests[0], dests[1]}.
		st[s0][lo/2] = dests[0] == 1
		return
	}
	half := size / 2
	depth := b.n - m // 0 at the outermost block
	next := sc.levels[depth+1]
	upDests := next[lo : lo+half]
	downDests := next[lo+half : lo+size]
	colorBlock(dests, lo, s0, m, st, sc.invDest, sc.up, upDests, downDests)
	b.setupScratch(upDests, lo, s0+1, m-1, st, sc)
	b.setupScratch(downDests, lo+half, s0+1, m-1, st, sc)
}

// colorBlock runs one level of the looping algorithm on the B(m) block
// at lines [lo, lo+2^m), stages [s0, s0+2m-2]: it resolves the
// 2-coloring loops, writes the block's first- and last-stage switch
// states into st, and scatters the two half-size sub-permutations into
// upDests and downDests (each len 2^(m-1), caller-owned). invDest and
// up are scratch of length >= 2^m. The coloring is deterministic —
// Waksman's free choice always sends each loop's smallest-numbered
// input through the upper subnetwork — which is what makes every
// alternative driver of this routine (serial recursion here, the
// worker-pool recursion in internal/psetup, the PRAM-rounds model in
// internal/parsetup) bit-identical in its emitted states.
func colorBlock(dests []int, lo, s0, m int, st States, invDestSc, upSc []int, upDests, downDests []int) {
	size := 1 << uint(m)
	half := size / 2
	// invDest[v] = input position whose destination is v.
	invDest := invDestSc[:size]
	for k, v := range dests {
		invDest[v] = k
	}
	// up[k] records whether input k is routed through the upper
	// subnetwork. Constraints: the two inputs of each first-stage switch
	// (positions 2i, 2i+1) take opposite values, and the two
	// destinations of each last-stage switch (values 2j, 2j+1) take
	// opposite values. Resolve loop by loop, fixing each loop's first
	// input to "up" (Waksman's free choice).
	const unset = 0
	const goesUp = 1
	const goesDown = 2
	up := upSc[:size]
	for i := range up {
		up[i] = unset
	}
	for start := 0; start < size; start++ {
		if up[start] != unset {
			continue
		}
		cur, dir := start, goesUp
		for {
			up[cur] = dir
			// The destination paired with ours at the last stage must
			// come through the other subnetwork.
			sibIn := invDest[dests[cur]^1]
			opp := goesUp
			if dir == goesUp {
				opp = goesDown
			}
			up[sibIn] = opp
			// And that input's partner at its first-stage switch must go
			// opposite to it, i.e. in our direction.
			cur = sibIn ^ 1
			if cur == start {
				break
			}
		}
	}
	// First-stage switch states: switch i is straight when its upper
	// input (position 2i) goes up.
	for i := 0; i < half; i++ {
		st[s0][lo/2+i] = up[2*i] != goesUp
	}
	// Build the sub-permutations seen by the two subnetworks. The input
	// at position k enters subnetwork position k/2; destination v is
	// served by subnetwork output v/2.
	for k, v := range dests {
		if up[k] == goesUp {
			upDests[k/2] = v / 2
		} else {
			downDests[k/2] = v / 2
		}
	}
	// Last-stage switch states: switch j's upper input carries the
	// up-routed destination v with v/2 == j; straight iff that v == 2j.
	lastStage := s0 + 2*m - 2
	for k, v := range dests {
		if up[k] == goesUp {
			st[lastStage][lo/2+v/2] = v%2 == 1
		}
	}
}

// ColorBlock exposes one level of the looping algorithm for external
// recursion drivers (the parallel setup of internal/psetup): it solves
// the 2-coloring of the B(m) block at lines [lo, lo+2^m) and stages
// [s0, s0+2m-2], writes the block's outer stage pair into st, and
// scatters the two half-size sub-permutations into upDests and
// downDests (each len 2^(m-1)). sc supplies the loop-resolution
// scratch; the call leaves sc.levels untouched, so one scratch may
// serve interleaved ColorBlock and SetupBlock calls. m must be >= 2.
func (b *Network) ColorBlock(dests []int, lo, s0, m int, st States, sc *SetupScratch, upDests, downDests []int) {
	colorBlock(dests, lo, s0, m, st, sc.invDest, sc.up, upDests, downDests)
}

// SetupBlock solves the complete B(m) sub-block at lines [lo, lo+2^m)
// and stages [s0, s0+2m-2] serially, exactly as a Setup of the whole
// network would solve it: the emitted states depend only on the
// block-local dests, never on the surrounding blocks. This is the
// serial-subtree leaf of internal/psetup's worker-pool recursion. sc
// must come from NewSetupScratch of this network (its level buffers
// are indexed by absolute depth b.LogN()-m and line offset lo).
func (b *Network) SetupBlock(dests []int, lo, s0, m int, st States, sc *SetupScratch) {
	b.setupScratch(dests, lo, s0, m, st, sc)
}
