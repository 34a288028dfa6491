package simd

import (
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/perm"
)

// This file holds the one executor of the package. Every Section III
// algorithm is a *program* — the ordered instruction stream the control
// unit broadcasts — and Machine.Exec is the only code that moves
// records. The CCC, PSC and MCC differ only in what an instruction
// costs; the bitonic baseline is one more program, and the
// recirculating network (internal/recirc) runs the PSC programs.

// Op is an SIMD instruction opcode.
type Op int

const (
	// OpExchangeDim is the CCC masked interchange across cube dimension
	// Arg: records move between PE(i) and PE(i^(Arg)) when (i)_Arg = 0
	// and bit Arg of D(i) is 1.
	OpExchangeDim Op = iota
	// OpExchangeTag is the PSC masked exchange: PE pairs (2i, 2i+1)
	// swap when bit Arg of D(2i) is 1.
	OpExchangeTag
	// OpShuffle routes every record along the perfect-shuffle wire.
	OpShuffle
	// OpUnshuffle routes every record along the unshuffle wire.
	OpUnshuffle
	// OpCompareDim is the bitonic compare-exchange across cube
	// dimension Arg: PE(i) and PE(i^(Arg)), (i)_Arg = 0, swap when their
	// tags are out of order — ascending where bit Dir of i is 0,
	// descending where it is 1.
	OpCompareDim
)

// Instr is one broadcast instruction.
type Instr struct {
	Op  Op
	Arg int // tag bit / dimension for the exchange and compare ops
	Dir int // PE-index bit choosing the sort direction of OpCompareDim
}

func (in Instr) String() string {
	switch in.Op {
	case OpExchangeDim:
		return fmt.Sprintf("XCHG.dim %d", in.Arg)
	case OpExchangeTag:
		return fmt.Sprintf("XCHG.tag %d", in.Arg)
	case OpShuffle:
		return "SHUF"
	case OpUnshuffle:
		return "UNSHUF"
	case OpCompareDim:
		return fmt.Sprintf("CMPX.dim %d dir %d", in.Arg, in.Dir)
	}
	return fmt.Sprintf("Instr(%d,%d)", int(in.Op), in.Arg)
}

// Program is an instruction stream with a listing.
type Program []Instr

// String renders the stream one instruction per line.
func (p Program) String() string {
	var sb strings.Builder
	for i, in := range p {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(in.String())
	}
	return sb.String()
}

// UnitRoutes returns the program's cost in unit routes under the
// one-word model: every instruction is one route.
func (p Program) UnitRoutes() int { return len(p) }

// CCCProgram returns the Section III cube program for 2^n PEs:
// XCHG.dim over the Benes bit sequence, 2n-1 instructions. The CCC and
// the MCC both run it; its omega, inverse-omega and BPC shortcuts are
// slices and filters of it.
func CCCProgram(n int) Program {
	var prog Program
	for _, b := range BitSequence(n) {
		prog = append(prog, Instr{Op: OpExchangeDim, Arg: b})
	}
	return prog
}

// PSCProgram returns the Section III shuffle program: 4n-3
// instructions,
//
//	for b := 0 to n-2 { EXCHANGE(bit b); UNSHUFFLE }
//	EXCHANGE(bit n-1)
//	for b := n-2 down to 0 { SHUFFLE; EXCHANGE(bit b) }
func PSCProgram(n int) Program {
	var prog Program
	for b := 0; b <= n-2; b++ {
		prog = append(prog, Instr{Op: OpExchangeTag, Arg: b}, Instr{Op: OpUnshuffle})
	}
	prog = append(prog, Instr{Op: OpExchangeTag, Arg: n - 1})
	for b := n - 2; b >= 0; b-- {
		prog = append(prog, Instr{Op: OpShuffle}, Instr{Op: OpExchangeTag, Arg: b})
	}
	return prog
}

// PSCOmegaProgram is the omega shortcut, 2n instructions: the first
// loop's n-1 exchanges would all be disabled (Benes stages forced
// straight by the omega bit) and its n-1 unshuffles collapse to a
// single shuffle.
func PSCOmegaProgram(n int) Program {
	return append(Program{{Op: OpShuffle}}, PSCProgram(n)[2*n-2:]...)
}

// PSCInverseOmegaProgram is the mirror shortcut for inverse-omega
// permutations, 2n instructions: the trailing loop collapses to a
// single unshuffle.
func PSCInverseOmegaProgram(n int) Program {
	return append(PSCProgram(n)[:2*n-1], Instr{Op: OpUnshuffle})
}

// BitonicProgram returns Batcher's bitonic sort of the tags on 2^n PEs:
// merges of size 2^k for k = 1..n, each comparing across dimensions
// k-1 down to 0 — n(n+1)/2 compare-exchanges, every one a
// single-dimension route.
func BitonicProgram(n int) Program {
	var prog Program
	for k := 1; k <= n; k++ {
		for b := k - 1; b >= 0; b-- {
			prog = append(prog, Instr{Op: OpCompareDim, Arg: b, Dir: k})
		}
	}
	return prog
}

// regs is the register file of every Section III machine: PE(i) holds
// the record R(i), initialized to i so the realized permutation can be
// read back, and its destination tag D(i); routes counts the unit
// routes spent moving them.
type regs struct {
	n, size int
	r, d    []int
	routes  int
}

// newRegs loads dest, panicking in caller's name unless it is a
// permutation of a power-of-two size.
func newRegs(caller string, dest perm.Perm) regs {
	if err := dest.Validate(); err != nil {
		panic("simd: " + caller + ": " + err.Error())
	}
	g := regs{n: bits.Log2(len(dest)), size: len(dest), r: make([]int, len(dest)), d: append([]int(nil), dest...)}
	for i := range g.r {
		g.r[i] = i
	}
	return g
}

// N returns the number of PEs.
func (g *regs) N() int { return g.size }

// Routes returns the unit routes consumed so far.
func (g *regs) Routes() int { return g.routes }

// Dest returns the current destination tags (diagnostics and the Fig. 6
// trace).
func (g *regs) Dest() []int { return append([]int(nil), g.d...) }

// OK reports whether every record reached its destination.
func (g *regs) OK() bool {
	for pe, want := range g.d {
		if want != pe {
			return false
		}
	}
	return true
}

// Realized reads back the permutation actually performed:
// Realized()[i] is the PE where the record starting at PE i now sits.
func (g *regs) Realized() perm.Perm {
	out := make(perm.Perm, g.size)
	for pe, rec := range g.r {
		out[rec] = pe
	}
	return out
}

// Machine is the interpreter: a register file and the unit routes each
// instruction costs on the machine being simulated.
type Machine struct {
	regs
	cost func(Instr) int
}

// NewMachine loads destination tags, R(i) = i, charging one unit route
// per instruction.
func NewMachine(dest perm.Perm) *Machine {
	return newMachine("NewMachine", dest, unitCost(1))
}

func newMachine(caller string, dest perm.Perm, cost func(Instr) int) *Machine {
	return &Machine{regs: newRegs(caller, dest), cost: cost}
}

// unitCost charges every instruction c unit routes.
func unitCost(c int) func(Instr) int { return func(Instr) int { return c } }

// Exec runs one instruction and charges its unit routes.
func (m *Machine) Exec(in Instr) {
	switch in.Op {
	case OpExchangeDim, OpExchangeTag, OpCompareDim:
		dim := in.Arg
		if in.Op == OpExchangeTag {
			dim = 0
		}
		for i := range m.r {
			if j := bits.Flip(i, dim); i < j && m.swaps(in, i, j) {
				m.r[i], m.r[j] = m.r[j], m.r[i]
				m.d[i], m.d[j] = m.d[j], m.d[i]
			}
		}
	case OpShuffle, OpUnshuffle:
		// The shuffle wire takes PE(i) to PE(shuffle(i)); the unshuffle
		// wire runs it backwards.
		r, d := make([]int, m.size), make([]int, m.size)
		for i := range m.r {
			from, to := i, bits.RotLeft(i, m.n)
			if in.Op == OpUnshuffle {
				from, to = to, from
			}
			r[to], d[to] = m.r[from], m.d[from]
		}
		m.r, m.d = r, d
	default:
		panic("simd: unknown instruction")
	}
	m.routes += m.cost(in)
}

// swaps reports whether the pair PE(i), PE(j), i < j, exchanges its
// records under the exchange or compare instruction in.
func (m *Machine) swaps(in Instr, i, j int) bool {
	if in.Op == OpCompareDim {
		return (m.d[i] > m.d[j]) == (bits.Bit(i, in.Dir) == 0)
	}
	return bits.Bit(m.d[i], in.Arg) == 1
}

// Run executes a whole program.
func (m *Machine) Run(p Program) {
	for _, in := range p {
		m.Exec(in)
	}
}
