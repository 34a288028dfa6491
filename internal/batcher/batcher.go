// Package batcher implements Batcher's sorting networks, bitonic and
// odd-even merge: the self-routing-but-expensive baseline of the
// paper's Section I. They realize all N! permutations with no setup at
// all (routing by sorting on destination tags) but pay O(log^2 N)
// delay and O(N log^2 N) comparators, versus the self-routing Benes
// network's O(log N) delay and O(N log N) switches for the class F.
package batcher

import (
	"fmt"

	"repro/internal/perm"
)

// Comparator is one compare-exchange element: it orders the values on
// lines Low and High so the smaller key ends up on Low.
type Comparator struct {
	Low, High int
}

// Network is a comparator network on N = 2^n lines: Batcher's bitonic
// sorter (New) or his odd-even merge sorter (NewOddEven). Both are
// built as log N merge phases; phase p (1-based) consists of p
// compare-exchange stages, for n(n+1)/2 stages total.
type Network struct {
	n      int
	size   int
	stages [][]Comparator
}

// New constructs the bitonic sorter for 2^n lines.
func New(n int) *Network {
	if n < 1 {
		panic("batcher: New requires n >= 1")
	}
	b := &Network{n: n, size: 1 << uint(n)}
	// Standard iterative bitonic construction: k is the merge size,
	// j the comparison distance.
	for k := 2; k <= b.size; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var stage []Comparator
			for i := 0; i < b.size; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				// Ascending iff the k-block containing i has even index.
				if i&k == 0 {
					stage = append(stage, Comparator{Low: i, High: l})
				} else {
					stage = append(stage, Comparator{Low: l, High: i})
				}
			}
			b.stages = append(b.stages, stage)
		}
	}
	return b
}

// N returns the number of lines.
func (b *Network) N() int { return b.size }

// LogN returns n.
func (b *Network) LogN() int { return b.n }

// Stages returns the number of compare-exchange stages, n(n+1)/2.
func (b *Network) Stages() int { return len(b.stages) }

// ComparatorCount returns the total number of comparators: N/2 ·
// n(n+1)/2 for the bitonic sorter, (n^2-n+4)·2^(n-2) - 1 for the
// odd-even merge sorter.
func (b *Network) ComparatorCount() int {
	c := 0
	for _, s := range b.stages {
		c += len(s)
	}
	return c
}

// GateDelay returns the delay in comparator traversals, n(n+1)/2.
func (b *Network) GateDelay() int { return len(b.stages) }

// SwitchCount reports the comparator count on the binary-switch scale
// used by the paper's comparisons (a comparator is a two-state switch
// plus a key comparison).
func (b *Network) SwitchCount() int { return b.ComparatorCount() }

// Sort sorts keys in place-order: it returns a slice holding the input
// indices in ascending key order... concretely out[y] is the key that
// ends on line y. Ties keep an arbitrary order (bitonic sorting is not
// stable).
func (b *Network) Sort(keys []int) []int {
	if len(keys) != b.size {
		panic(fmt.Sprintf("batcher: %d keys on %d lines", len(keys), b.size))
	}
	cur := append([]int(nil), keys...)
	for _, stage := range b.stages {
		for _, c := range stage {
			if cur[c.Low] > cur[c.High] {
				cur[c.Low], cur[c.High] = cur[c.High], cur[c.Low]
			}
		}
	}
	return cur
}

// Route performs the permutation d by sorting destination tags: each
// line carries (tag, source), comparators order by tag, and after
// n(n+1)/2 stages line y holds tag y. Returns the realized mapping,
// which for a valid permutation is always d itself — the network is
// self-routing for all N! permutations.
func (b *Network) Route(d perm.Perm) perm.Perm {
	if len(d) != b.size {
		panic(fmt.Sprintf("batcher: permutation length %d != N %d", len(d), b.size))
	}
	type sig struct{ tag, src int }
	cur := make([]sig, b.size)
	for i, t := range d {
		cur[i] = sig{tag: t, src: i}
	}
	for _, stage := range b.stages {
		for _, c := range stage {
			if cur[c.Low].tag > cur[c.High].tag {
				cur[c.Low], cur[c.High] = cur[c.High], cur[c.Low]
			}
		}
	}
	realized := make(perm.Perm, b.size)
	for y, s := range cur {
		realized[s.src] = y
	}
	return realized
}

// Realizes reports whether routing-by-sorting performs d; true for every
// valid permutation.
func (b *Network) Realizes(d perm.Perm) bool {
	if !d.Valid() {
		return false
	}
	return b.Route(d).Equal(d)
}

// Permute moves data through the network under d.
func Permute[T any](b *Network, d perm.Perm, data []T) []T {
	return perm.Apply(b.Route(d), data)
}
