package simd

import "repro/internal/perm"

// This file implements the arbitrary-permutation baseline of
// Section III: sorting the records (R(i), D(i)) on the key D with
// Batcher's bitonic sort (BitonicProgram). On a CCC or PSC this takes
// O(log^2 N) routing steps; on an MCC, O(sqrt(N)) with a larger
// constant than the F-routing algorithm. The self-routing simulation
// beats it by a log N factor on the cube whenever the permutation is
// in F.

// SortCCC permutes dest's records on a cube-connected computer by
// bitonic sort. Each compare-exchange stage moves records across one
// cube dimension and back, costing exchangeCost unit routes (2 when a
// record must make a round trip, 1 in the optimistic one-word model).
// It returns the total unit routes used: n(n+1)/2 * exchangeCost.
func SortCCC(dest perm.Perm, exchangeCost int) (realized perm.Perm, routes int) {
	return bitonicSort(newMachine("SortCCC", dest, unitCost(exchangeCost)))
}

// SortRoutesCCC returns the closed-form unit-route count of SortCCC:
// n(n+1)/2 compare-exchange stages at exchangeCost routes each.
func SortRoutesCCC(n, exchangeCost int) int {
	return n * (n + 1) / 2 * exchangeCost
}

// SortMCC permutes dest's records on a square mesh by the same bitonic
// schedule, charging mesh distance for every stage: a stage with
// comparison distance 2^b costs 2*2^(b mod log sqrt(N)) unit routes.
func SortMCC(dest perm.Perm) (realized perm.Perm, routes int) {
	return bitonicSort(newMesh("SortMCC", dest))
}

func bitonicSort(m *Machine) (perm.Perm, int) {
	m.Run(BitonicProgram(m.n))
	if !m.OK() {
		panic("simd: bitonic sort failed to sort")
	}
	return m.Realized(), m.Routes()
}
