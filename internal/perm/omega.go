package perm

import (
	"repro/internal/bits"
)

// This file implements membership predicates for Lawrie's omega and
// inverse-omega permutation classes (Section II). A permutation D is in
// Omega(n) exactly when Lawrie's omega network can realize it without
// blocking; because the omega network is a unique-path network, this is
// a purely combinatorial window condition on the bits of i and D_i:
//
//	D is in Omega(n) iff for every pair i != j and every b in [1, n-1]:
//	    (i)_{b-1:0} = (j)_{b-1:0}  implies  (D_i)_{n-1:b} != (D_j)_{n-1:b}.
//
// Intuitively, after stage n-1-b of the omega network the line occupied
// by input i is determined by the low b bits of i and the high n-b bits
// of D_i; two inputs collide exactly when those coincide. D is in
// InverseOmega(n) iff D^{-1} is in Omega(n), i.e. the same condition
// with the roles of i and D_i exchanged.
//
// The predicates here are validated against a gate-level simulation of
// the omega network (package omega) by tests.

// IsOmega reports whether p is an omega permutation: realizable by the
// self-routing omega network without conflicts. It runs in O(N log N).
func IsOmega(p Perm) bool {
	reason, _, _, b := windowScan(p, false)
	return reason == "" && b == 0
}

// IsInverseOmega reports whether p is an inverse-omega permutation:
// realizable by an omega network run backwards. Equivalently,
// p.Inverse() is in Omega(n).
func IsInverseOmega(p Perm) bool {
	reason, _, _, b := windowScan(p, true)
	return reason == "" && b == 0
}

// windowScan checks p against the window condition. It returns the
// reason p is outside both classes when p is not a permutation of a
// power-of-two size; otherwise the first clash, scanning windows
// b = 1..n-1 and inputs in order: inputs j < i whose pairs (low b bits
// of i, high n-b bits of D_i) coincide in window b, or b = 0 when none
// do. With inverse set, i and D_i swap roles (the inverse-omega
// condition).
func windowScan(p Perm, inverse bool) (reason string, j, i, b int) {
	if !p.Valid() {
		return "not a permutation", 0, 0, 0
	}
	if !bits.IsPow2(len(p)) {
		return "length is not a power of two", 0, 0, 0
	}
	n := bits.Log2(len(p))
	// The pair is encoded as one integer key; holder[key] is the input
	// that took it in the current window.
	holder := make([]int, len(p))
	for b := 1; b <= n-1; b++ {
		for k := range holder {
			holder[k] = -1
		}
		for i, d := range p {
			lo, hi := i, d
			if inverse {
				lo, hi = d, i
			}
			key := hi>>uint(b)<<uint(b) | lo&(1<<uint(b)-1)
			if j := holder[key]; j >= 0 {
				return "", j, i, b
			}
			holder[key] = i
		}
	}
	return "", 0, 0, 0
}
