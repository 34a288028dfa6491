package simd

import "repro/internal/perm"

// MCC simulates a sqrt(N) x sqrt(N) mesh-connected computer holding PEs
// in row-major order. The permutation algorithm is the CCC loop with
// each cube interchange implemented by mesh moves: PEs differing in bit
// b of their row-major index are 2^b columns apart when b < log sqrt(N)
// and 2^(b - log sqrt(N)) rows apart otherwise; an interchange between
// PEs 2^k apart costs 2*2^k unit routes (each record travels the
// distance, in opposite directions). The full loop therefore costs
// exactly 7 sqrt(N) - 8 unit routes (Section III).
type MCC struct{ cube }

// NewMCC prepares an MCC holding destination tags dest; the tag count
// must be an even power of two (a square mesh).
func NewMCC(dest perm.Perm) *MCC {
	return &MCC{cube{Machine: newMesh("NewMCC", dest)}}
}

// newMesh loads dest into a machine charging mesh distance for every
// instruction across a cube dimension (MCC.StepCost).
func newMesh(caller string, dest perm.Perm) *Machine {
	m := newMachine(caller, dest, nil)
	half := meshLog(caller, m.n)
	m.cost = func(in Instr) int { return 2 << uint(in.Arg%half) }
	return m
}

// meshLog returns log2 sqrt(N) for a mesh of 2^n PEs, panicking in
// caller's name unless the mesh is square.
func meshLog(caller string, n int) int {
	if n%2 != 0 {
		panic("simd: " + caller + " requires a square mesh (even log N)")
	}
	return n / 2
}

// Side returns sqrt(N), the mesh dimension.
func (mc *MCC) Side() int { return 1 << uint(mc.n/2) }

// StepCost returns the unit-route cost of the dimension-b interchange:
// twice the mesh distance 2^(b mod log sqrt(N)).
func (mc *MCC) StepCost(b int) int { return mc.cost(Instr{Op: OpExchangeDim, Arg: b}) }

// FullLoopCost returns the closed-form route count of Permute for a
// mesh of 2^n PEs: 7 sqrt(N) - 8.
func FullLoopCost(n int) int {
	return 7*(1<<uint(n/2)) - 8
}
