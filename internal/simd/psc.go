package simd

import "repro/internal/perm"

// PSC simulates an N-PE perfect-shuffle computer. PE(i) is connected to
// PE(i^(0)) (exchange), PE(shuffle(i)) and PE(unshuffle(i)). The
// Section III algorithm simulates the Benes network using only those
// three connections, in 4 log N - 3 unit routes; every exchange,
// shuffle and unshuffle is one unit route.
type PSC struct{ *Machine }

// NewPSC prepares a PSC holding destination tags dest; R(i) is
// initialized to i.
func NewPSC(dest perm.Perm) *PSC { return &PSC{newMachine("NewPSC", dest, unitCost(1))} }

// Permute runs PSCProgram: 4 log N - 3 unit routes.
func (p *PSC) Permute() { p.Run(PSCProgram(p.n)) }

// PermuteOmega runs PSCOmegaProgram, the Section III shortcut for
// Omega permutations: 2 log N unit routes.
func (p *PSC) PermuteOmega() { p.Run(PSCOmegaProgram(p.n)) }

// PermuteInverseOmega runs PSCInverseOmegaProgram, the mirror shortcut
// for inverse-omega permutations: 2 log N unit routes.
func (p *PSC) PermuteInverseOmega() { p.Run(PSCInverseOmegaProgram(p.n)) }
