package perm

import (
	"repro/internal/bits"
)

// This file implements the recursive characterization of F(n), the class
// of permutations realizable on the self-routing Benes network
// (Theorem 1). The characterization mirrors the network's structure: the
// first stage splits the destination tags into an upper stream U and a
// lower stream L according to bit 0 of each switch's *upper* input
// (equations (1) and (2) of the paper); D is in F(n) iff both U and L,
// with bit 0 dropped, are themselves permutations in F(n-1).
//
// The tests confirm that InF agrees with a full gate-level simulation of
// the self-routing network (package core) on every permutation of N=4
// and N=8 and on random larger instances.

// SplitUL computes the upper and lower destination-tag streams produced
// by stage 0 of the self-routing network, keeping full n-bit tags:
//
//	U_i = D_{2i}   if (D_{2i})_0 = 0, else D_{2i+1}
//	L_i = D_{2i+1} if (D_{2i})_0 = 0, else D_{2i}
//
// (equations (1) and (2)). The returned slices are *tag* streams, not
// necessarily permutations.
func SplitUL(p Perm) (upper, lower []int) {
	N := len(p)
	upper = make([]int, N/2)
	lower = make([]int, N/2)
	for i := 0; i < N/2; i++ {
		if bits.Bit(p[2*i], 0) == 0 {
			upper[i], lower[i] = p[2*i], p[2*i+1]
		} else {
			upper[i], lower[i] = p[2*i+1], p[2*i]
		}
	}
	return upper, lower
}

// InF reports whether p is in F(n): realizable by the self-routing Benes
// network B(n) under the destination-tag scheme of Section I. p must
// have power-of-two length. InF runs in O(N log N) time.
func InF(p Perm) bool {
	if !p.Valid() || !bits.IsPow2(len(p)) {
		return false
	}
	return fViolation(p, bits.Log2(len(p))) == ""
}

// fViolation applies Theorem 1 to a stream of full destination tags
// whose low `level` bits address within the current subnetwork. It
// returns "" when the stream is realizable, and otherwise the u/l path,
// below the current subnetwork, of the first subnetwork whose input
// stream is not a permutation: U and L with bit 0 dropped (the paper's
// (U_i)_{n-1:1}) must both be permutations of (0, ..., half-1) on the
// low level-1 bits, and so on down. B(1) is a single switch realizing
// both permutations of two elements, so level 1 always succeeds.
func fViolation(tags []int, level int) string {
	if level <= 1 {
		return ""
	}
	upper, lower := SplitUL(tags)
	if !subPermValid(upper, level) {
		return "u"
	}
	if !subPermValid(lower, level) {
		return "l"
	}
	if v := fViolation(shiftTags(upper), level-1); v != "" {
		return "u" + v
	}
	if v := fViolation(shiftTags(lower), level-1); v != "" {
		return "l" + v
	}
	return ""
}

// subPermValid checks that dropping bit 0 of each tag yields a
// permutation of (0, ..., len(tags)-1) on bits 1..level-1.
func subPermValid(tags []int, level int) bool {
	mask := (1 << uint(level)) - 1
	seen := make([]bool, len(tags))
	for _, t := range tags {
		v := (t & mask) >> 1
		if v >= len(tags) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// shiftTags drops bit `0..level` bookkeeping by shifting each tag right
// one position; higher bits (which address the enclosing network) shift
// down harmlessly because only the low bits are inspected at deeper
// levels.
func shiftTags(tags []int) []int {
	out := make([]int, len(tags))
	for i, t := range tags {
		out[i] = t >> 1
	}
	return out
}

// FWitness explains why p is not in F(n). It returns ok=true with empty
// detail when p is in F, and otherwise a human-readable description of
// the first violated Theorem-1 condition (which subnetwork, at which
// recursion level, fails to receive a permutation).
func FWitness(p Perm) (ok bool, detail string) {
	if !p.Valid() {
		return false, "not a permutation"
	}
	if !bits.IsPow2(len(p)) {
		return false, "length is not a power of two"
	}
	path := fViolation(p, bits.Log2(len(p)))
	if path == "" {
		return true, ""
	}
	stream := "upper"
	if path[len(path)-1] == 'l' {
		stream = "lower"
	}
	return false, stream + " stream into B" + path + " is not a permutation (Theorem 1 violated)"
}
