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
// the network realizes all N! permutations. Setup is the reference
// form: it runs SetupInto and unpacks the words it writes.
func (b *Network) Setup(d perm.Perm) States {
	if err := d.Validate(); err != nil {
		panic("core: Setup: " + err.Error())
	}
	if len(d) != b.size {
		panic(fmt.Sprintf("core: Setup: permutation length %d != N %d", len(d), b.size))
	}
	words := make([]uint64, b.stages*b.StageWords())
	b.SetupInto(d, words, NewSetupScratch(b))
	st := b.NewStates()
	st.Unpack(words)
	return st
}

// SetupScratch is the reusable working memory of one looping-algorithm
// run: the per-level destination buffers plus the loop-resolution
// arrays. A scratch belongs to one goroutine at a time; reusing it
// across calls makes SetupInto allocation-free, which matters on hot
// paths that set up a fresh permutation per frame (the packet fabric).
// SelfRouteInto borrows the two loop-resolution arrays as its tag
// buffers, so one scratch serves a self-routing attempt and the looping
// fallback after it, each writing the caller's packed words.
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

// SetupInto is Setup writing into caller-owned memory: words receives
// the switch setting packed (pack.go's layout, Stages()·StageWords()
// words; every one is overwritten, so a dirty buffer is fine) and sc
// provides the working buffers. It performs no allocations, making it
// the right entry point for per-frame setup on serving paths. Like
// Setup it panics on an invalid permutation — callers on hot paths are
// expected to construct d correct by construction.
func (b *Network) SetupInto(d perm.Perm, words []uint64, sc *SetupScratch) {
	if len(d) != b.size {
		panic(fmt.Sprintf("core: SetupInto: permutation length %d != N %d", len(d), b.size))
	}
	words = words[:b.stages*b.StageWords()]
	clear(words)
	dests := sc.levels[0][:b.size]
	copy(dests, d)
	b.SetupBlock(dests, 0, 0, b.n, words, sc)
}

// SettingInto writes into words the setting every serving path gives
// d: the self-routing kernel's when d is in F(n), and otherwise, from
// the kernel's first conflict, the looping algorithm's. It reports
// which of the two it wrote. Like SetupInto it allocates nothing and
// expects a valid permutation of length N.
func (b *Network) SettingInto(d perm.Perm, words []uint64, sc *SetupScratch) (selfRouted bool) {
	if b.SelfRouteInto(d, words, sc) {
		return true
	}
	b.SetupInto(d, words, sc)
	return false
}

// SetupBlock solves the B(m) block whose inputs occupy lines
// [lo, lo+2^m) at stages [s0, s0+2m-2], exactly as SetupInto solves it
// inside the whole network: the emitted states depend only on the
// block-local dests, never on the surrounding blocks. dests[k] is the
// block-local destination of the input at block-local position k. It
// ORs the block's switch bits into words, whose bits for the block must
// be clear. All working memory comes from sc, which must come from
// NewSetupScratch of this network: invDest and up are safe to share
// across blocks because their last use precedes the recursive calls,
// and the sub-permutations live in sc.levels[depth+1], segmented by lo
// so sibling blocks never overlap. SetupInto recurses through it, and
// internal/psetup calls it for its serial subtrees.
func (b *Network) SetupBlock(dests []int, lo, s0, m int, words []uint64, sc *SetupScratch) {
	if m == 1 {
		// A single switch, lo/2: inputs (0,1) to outputs {dests[0], dests[1]}.
		words[s0*b.StageWords()+lo>>7] |= uint64(dests[0]) << (lo >> 1 & 63)
		return
	}
	size := 1 << uint(m)
	half := size / 2
	next := sc.levels[b.n-m+1]
	upDests := next[lo : lo+half]
	downDests := next[lo+half : lo+size]
	b.ColorBlock(dests, lo, s0, m, words, sc, upDests, downDests)
	b.SetupBlock(upDests, lo, s0+1, m-1, words, sc)
	b.SetupBlock(downDests, lo+half, s0+1, m-1, words, sc)
}

// ColorBlock runs one level of the looping algorithm on the B(m) block
// at lines [lo, lo+2^m), stages [s0, s0+2m-2], m >= 2: it resolves the
// 2-coloring loops, ORs the block's first- and last-stage switch bits
// into words (whose bits for the block must be clear), and scatters the
// two half-size sub-permutations into upDests and downDests (each len
// 2^(m-1), caller-owned). It uses sc's loop-resolution arrays and
// leaves sc.levels untouched, so one scratch may serve interleaved
// ColorBlock and SetupBlock calls. The coloring is deterministic —
// Waksman's free choice always sends each loop's smallest-numbered
// input through the upper subnetwork — which is what makes every
// recursion over this routine (the serial one of SetupInto, the
// worker-pool one in internal/psetup) bit-identical to the PRAM-rounds
// model in internal/parsetup.
func (b *Network) ColorBlock(dests []int, lo, s0, m int, words []uint64, sc *SetupScratch, upDests, downDests []int) {
	size := 1 << uint(m)
	half := size / 2
	// invDest[v] = input position whose destination is v.
	invDest := sc.invDest[:size]
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
	up := sc.up[:size]
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
	// First-stage switch i is straight when its upper input (position
	// 2i) goes up; last-stage switch j is straight when destination 2j
	// is the one served through the upper subnetwork. A direction minus
	// goesUp is the switch's bit. Each stage's bits are built in a
	// register, up to a word at a time: a block of 128 lines or more
	// owns whole words, a smaller one shares its word with siblings.
	w := b.StageWords()
	first := words[s0*w : (s0+1)*w]
	last := words[(s0+2*m-2)*w : (s0+2*m-1)*w]
	for i0 := 0; i0 < half; i0 += 64 {
		var f, l uint64
		for i, end := i0, min(i0+64, half); i < end; i++ {
			f |= uint64(up[2*i]-goesUp) << (uint(i) & 63)
			l |= uint64(up[invDest[2*i]]-goesUp) << (uint(i) & 63)
		}
		sw := lo/2 + i0
		first[sw>>6] |= f << (uint(sw) & 63)
		last[sw>>6] |= l << (uint(sw) & 63)
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
}
