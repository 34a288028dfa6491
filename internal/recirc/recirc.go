// Package recirc implements a recirculating shuffle-exchange network:
// a SINGLE column of N/2 two-state switches whose outputs feed back to
// its inputs through shuffle (and unshuffle) wiring. This is the
// cheap-hardware design point the paper contrasts with in Section I
// (networks in the Lang & Stone tradition): only N/2 switches — a
// 2 log N - 1 factor less than the Benes network — at the price of one
// column traversal per pass.
//
// Modes:
//   - RouteF: the Section III PSC schedule executed in hardware,
//     4 log N - 3 passes, realizing exactly the class F(n);
//   - RouteOmega: n passes of shuffle+exchange, realizing exactly
//     Omega(n) (a recirculating omega network);
//   - RouteInverseOmega: n passes of exchange+unshuffle, realizing
//     exactly the inverse-omega class.
//
// Every mode self-routes from destination tags with the paper's rule:
// a switch crosses iff the control bit of its UPPER input's tag is 1.
// Each mode is a PSC program (simd.PSCProgram, simd.PSCOmegaProgram,
// simd.PSCInverseOmegaProgram) run on a simd.Machine and reread as
// hardware passes: an exchange is one column traversal, a shuffle or an
// unshuffle one wire trip.
package recirc

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/simd"
)

// Network is the single-column recirculating fabric.
type Network struct {
	n    int
	size int
}

// New builds the fabric for 2^n lines.
func New(n int) *Network {
	if n < 1 {
		panic("recirc: New requires n >= 1")
	}
	return &Network{n: n, size: 1 << uint(n)}
}

// N returns the line count.
func (r *Network) N() int { return r.size }

// LogN returns n.
func (r *Network) LogN() int { return r.n }

// SwitchCount returns the physical switches: one column, N/2.
func (r *Network) SwitchCount() int { return r.size / 2 }

// PassesF returns the sequential steps (column traversals plus
// recirculation wire trips) for an F permutation: 2 log N - 1 exchanges
// and 2 log N - 2 wire trips, 4 log N - 3 in all — the same count as
// the PSC unit routes, now reread as hardware delay.
func (r *Network) PassesF() int { return 4*r.n - 3 }

// PassesOmega returns the steps for an Omega (or inverse-omega)
// permutation: log N exchanges plus log N wire trips.
func (r *Network) PassesOmega() int { return 2 * r.n }

// Result reports one recirculating routing.
type Result struct {
	Realized  perm.Perm
	Misrouted []int
	Exchanges int // switch-column traversals
	WireTrips int // shuffle/unshuffle recirculations
}

// Passes returns the total sequential steps: the column is a shared
// resource, so exchanges and wire trips serialize.
func (res *Result) Passes() int { return res.Exchanges + res.WireTrips }

// OK reports whether the permutation was realized.
func (res *Result) OK() bool { return len(res.Misrouted) == 0 }

// route runs prog on the column's register file, panicking unless d is
// a permutation of N lines, and counts its passes by opcode.
func (r *Network) route(d perm.Perm, prog simd.Program) *Result {
	if len(d) != r.size {
		panic(fmt.Sprintf("recirc: permutation length %d != N %d", len(d), r.size))
	}
	m := simd.NewMachine(d)
	m.Run(prog)
	res := &Result{Realized: m.Realized()}
	for _, in := range prog {
		if in.Op == simd.OpExchangeTag {
			res.Exchanges++
		} else {
			res.WireTrips++
		}
	}
	for i, dest := range d {
		if res.Realized[i] != dest {
			res.Misrouted = append(res.Misrouted, i)
		}
	}
	return res
}

// RouteF runs the full F schedule: exchange(bit b)+unshuffle for
// b = 0..n-2, exchange(bit n-1), then shuffle+exchange(bit b) for
// b = n-2..0. It realizes exactly F(n) in 4 log N - 3 passes.
func (r *Network) RouteF(d perm.Perm) *Result { return r.route(d, simd.PSCProgram(r.n)) }

// RouteOmega runs n passes of shuffle+exchange(bit n-1-k): the
// recirculating omega network. Realizes exactly Omega(n).
func (r *Network) RouteOmega(d perm.Perm) *Result { return r.route(d, simd.PSCOmegaProgram(r.n)) }

// RouteInverseOmega runs n passes of exchange(bit k)+unshuffle: the
// omega network backwards. Realizes exactly the inverse-omega class.
func (r *Network) RouteInverseOmega(d perm.Perm) *Result {
	return r.route(d, simd.PSCInverseOmegaProgram(r.n))
}
