package simd

import (
	"repro/internal/bits"
	"repro/internal/perm"
)

// MCCDetailed is the hop-faithful mesh machine: where MCC charges
// 2*2^(b mod m) unit routes per interchange as an aggregate, this
// implementation physically moves the records PE-to-PE — every unit
// route is a transfer between mesh NEIGHBOURS (distance one column or
// one row), exactly like the 1980 hardware would. Tests assert it
// reaches the same final state with the same route count as MCC, and a
// movement hook lets tests verify no record ever teleports.
type MCCDetailed struct {
	regs
	m    int // log2 sqrt(N)
	side int

	// onMove, when set, observes every physical transfer (from, to).
	onMove func(from, to int)
}

// NewMCCDetailed prepares the machine; requires a square mesh.
func NewMCCDetailed(dest perm.Perm) *MCCDetailed {
	g := newRegs("NewMCCDetailed", dest)
	m := meshLog("NewMCCDetailed", g.n)
	return &MCCDetailed{regs: g, m: m, side: 1 << uint(m)}
}

// OnMove installs a hook observing every neighbour transfer.
func (mc *MCCDetailed) OnMove(f func(from, to int)) { mc.onMove = f }

// Step performs the dimension-b masked interchange by physical
// store-and-forward: the masked records travel +unit for 2^(b mod m)
// steps, then their partners travel -unit for the same distance. Every
// step is one unit route.
func (mc *MCCDetailed) Step(b int) {
	unit := 1 // neighbouring column
	if b >= mc.m {
		unit = mc.side // neighbouring row
	}
	dist := 1 << uint(b%mc.m)
	delta := unit * dist // displacement between partners, = 2^b in index terms

	// ride carries the records at PEs from dist hops of step each, one
	// unit route a hop, and returns them keyed by where they arrive.
	type rec struct{ r, d int }
	ride := func(from []int, step int) map[int]rec {
		transit := make(map[int]rec, len(from))
		for _, i := range from {
			transit[i] = rec{mc.r[i], mc.d[i]}
		}
		for hop := 0; hop < dist; hop++ {
			next := make(map[int]rec, len(transit))
			for pos, rv := range transit {
				if mc.onMove != nil {
					mc.onMove(pos, pos+step)
				}
				next[pos+step] = rv
			}
			transit = next
			mc.routes++
		}
		return transit
	}
	// The masked records ride +unit lanes, then their partners ride
	// -unit lanes back; both deposit once the last hop lands.
	var sources, partners []int
	for i := 0; i < mc.size; i++ {
		if bits.Bit(i, b) == 0 && bits.Bit(mc.d[i], b) == 1 {
			sources, partners = append(sources, i), append(partners, i+delta)
		}
	}
	fwd, back := ride(sources, unit), ride(partners, -unit)
	for _, arrived := range []map[int]rec{fwd, back} {
		for pos, rv := range arrived {
			mc.r[pos], mc.d[pos] = rv.r, rv.d
		}
	}
}

// Permute runs CCCProgram hop by hop: 7 sqrt(N) - 8 unit routes, one
// per neighbour transfer phase, SIMD-lockstep across all transiting
// records.
func (mc *MCCDetailed) Permute() {
	for _, in := range CCCProgram(mc.n) {
		mc.Step(in.Arg)
	}
}
