package perm

import (
	"fmt"

	"repro/internal/bits"
)

// Diagnostic witnesses for the omega window conditions: when a
// permutation is rejected, these return the concrete conflicting pair,
// in the terms of Lawrie's definition, for error messages and the CLI.

// OmegaWitness returns ok=true when p is an omega permutation, and
// otherwise a description of the first window violation: two inputs
// that share their low b bits while their destinations share the high
// n-b bits — the pair that would collide in the omega network.
func OmegaWitness(p Perm) (ok bool, detail string) {
	reason, j, i, b := windowScan(p, false)
	switch {
	case reason != "":
		return false, reason
	case b == 0:
		return true, ""
	}
	n := bits.Log2(len(p))
	return false, fmt.Sprintf(
		"inputs %d and %d share low %d bit(s) but destinations %d and %d share bits %d..%d — they collide at omega stage %d",
		j, i, b, p[j], p[i], b, n-1, n-1-b)
}

// InverseOmegaWitness is the mirrored diagnostic for the inverse-omega
// class.
func InverseOmegaWitness(p Perm) (ok bool, detail string) {
	if !p.Valid() {
		return false, "not a permutation"
	}
	if !bits.IsPow2(len(p)) {
		return false, "length is not a power of two"
	}
	okInv, d := OmegaWitness(p.Inverse())
	if okInv {
		return true, ""
	}
	return false, "inverse violates the omega window: " + d
}
