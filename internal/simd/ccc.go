// Package simd implements the Section III parallel permutation
// algorithms: simulating the self-routing Benes network on SIMD machines
// with fixed interconnections — the cube-connected computer (CCC), the
// perfect-shuffle computer (PSC), and the mesh-connected computer (MCC).
// Every machine counts unit routes, the paper's cost measure, so the
// headline counts (2 log N - 1 for CCC, 4 log N - 3 for PSC,
// 7 sqrt(N) - 8 for MCC) are reproduced exactly. A bitonic-sort-based
// permutation (the best known arbitrary-permutation method, O(log^2 N)
// routes) is provided as the baseline. Every algorithm is a Program, and
// Machine.Exec (program.go) runs them all; MCCDetailed replays
// CCCProgram hop by hop as the reference for the MCC's cost.
package simd

import (
	"fmt"

	"repro/internal/perm"
)

// CCC simulates an N-PE cube-connected computer. PE(i) holds a record
// (R(i), D(i)): R is the datum (initialized to the PE index so the
// realized permutation can be read back) and D its destination address.
// PE(i) is connected to PE(i^(b)) for every bit b.
type CCC struct{ cube }

// NewCCC prepares a CCC holding destination tags dest. exchangeCost is
// the unit-route cost of one masked interchange: 1 when record and tag
// fit one word (the paper's 2 log N - 1 total), 2 otherwise
// (4 log N - 2).
func NewCCC(dest perm.Perm, exchangeCost int) *CCC {
	if exchangeCost != 1 && exchangeCost != 2 {
		panic("simd: exchangeCost must be 1 or 2")
	}
	return &CCC{cube{Machine: newMachine("NewCCC", dest, unitCost(exchangeCost))}}
}

// cube is a machine running CCCProgram: the CCC and the MCC differ only
// in what an interchange costs.
type cube struct {
	*Machine
	skipped int // iterations skipped by shortcuts
}

// Skipped returns the number of loop iterations skipped by shortcuts.
func (c *cube) Skipped() int { return c.skipped }

// Step performs one iteration of the paper's loop across cube dimension
// b: the masked interchange
//
//	(R(i^(b)), D(i^(b))) <-> (R(i), D(i)),  (i)_b = 0 and (D(i))_b = 1.
func (c *cube) Step(b int) { c.Exec(Instr{Op: OpExchangeDim, Arg: b}) }

// BitSequence returns the paper's iteration order for B(n) simulation:
// b = 0, 1, ..., n-2, n-1, n-2, ..., 0 (2n-1 iterations, mirroring the
// Benes control-bit sequence).
func BitSequence(n int) []int {
	seq := make([]int, 0, 2*n-1)
	for b := 0; b < n; b++ {
		seq = append(seq, b)
	}
	for b := n - 2; b >= 0; b-- {
		seq = append(seq, b)
	}
	return seq
}

// Permute runs the full 2 log N - 1 iteration loop: 2 log N - 1 unit
// routes on the one-word CCC, 7 sqrt(N) - 8 on the MCC.
func (c *cube) Permute() { c.Run(CCCProgram(c.n)) }

// PermuteSkipping runs the loop but skips iterations whose bit is marked
// in skip; skipped iterations cost no routes.
func (c *cube) PermuteSkipping(skip func(b int) bool) {
	for _, in := range CCCProgram(c.n) {
		if skip(in.Arg) {
			c.skipped++
			continue
		}
		c.Exec(in)
	}
}

// PermuteOmega exploits the Section III shortcut for Omega permutations:
// the first n-1 iterations (the Benes stages forced straight by the
// omega bit) are skipped entirely.
func (c *cube) PermuteOmega() {
	c.Run(CCCProgram(c.n)[c.n-1:])
	c.skipped += c.n - 1
}

// PermuteInverseOmega skips the *last* n-1 iterations, the shortcut for
// inverse-omega permutations.
func (c *cube) PermuteInverseOmega() {
	c.Run(CCCProgram(c.n)[:c.n])
	c.skipped += c.n - 1
}

// PermuteBPC runs the loop skipping every iteration b = j with
// A_j = +j: such a bit never needs routing across dimension j
// (Section III). spec must describe the same permutation as the
// destination tags.
func (c *cube) PermuteBPC(spec perm.BPC) {
	if len(spec) != c.n {
		panic("simd: BPC spec size mismatch")
	}
	c.PermuteSkipping(func(b int) bool {
		return spec[b].Pos == b && !spec[b].Comp
	})
}

// Fig6Trace reruns the algorithm for dest recording the D(i) column
// after every iteration — the table shown in the paper's Fig. 6. Row k
// of the result holds (b_k, D-vector after iteration k); row 0 is the
// initial state with b = -1.
func Fig6Trace(dest perm.Perm) ([][]int, []int) {
	c := NewCCC(dest, 1)
	seq := BitSequence(c.n)
	trace := [][]int{c.Dest()}
	for _, b := range seq {
		c.Step(b)
		trace = append(trace, c.Dest())
	}
	if !c.OK() {
		panic(fmt.Sprintf("simd: Fig6Trace: %v is not in F", dest))
	}
	return trace, seq
}
