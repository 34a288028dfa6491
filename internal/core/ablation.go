package core

import (
	"fmt"

	"repro/internal/perm"
)

// This file supports the design-ablation experiments (E22): the paper's
// self-routing rule has two free-looking choices — *which tag bit* each
// stage examines (Fig. 3's schedule b = 0..n-1..0) and *which input*
// supplies the controlling tag (the upper one). RouteWithSchedule lets
// both vary so the experiments can show the paper's choices are the
// ones that make BPC and inverse-omega routable.

// ControlSource selects which input's tag drives a switch.
type ControlSource int

const (
	// UpperInput is the paper's rule (Fig. 3).
	UpperInput ControlSource = iota
	// LowerInput keeps the paper's polarity but reads the lower input.
	// This is a broken design: at the final stage, whichever of the two
	// tags {2j, 2j+1} sits on the lower input, the resulting state sends
	// it to the wrong output — so NO permutation is realizable. The
	// ablation experiments use it to show the rule is not arbitrary.
	LowerInput
	// LowerInputInverted is the true mirror of the paper's rule: state =
	// complement of the control bit on the lower input. By the top-down
	// mirror symmetry of the network this realizes a class of exactly
	// |F| permutations, but a different set.
	LowerInputInverted
)

// RouteWithSchedule self-routes d using an arbitrary per-stage control
// bit schedule and control source. schedule must have one entry per
// stage, each in [0, n). The paper's network is recovered with
// schedule[s] = min(s, 2n-2-s) and UpperInput.
func (b *Network) RouteWithSchedule(d perm.Perm, schedule []int, src ControlSource) *Result {
	if len(schedule) != b.stages {
		panic(fmt.Sprintf("core: RouteWithSchedule: schedule has %d entries, want %d", len(schedule), b.stages))
	}
	for _, cb := range schedule {
		if cb < 0 || cb >= b.n {
			panic("core: RouteWithSchedule: control bit out of range")
		}
	}
	return b.route(d, rule{schedule: schedule, src: src}, nil, nil)
}

// PaperSchedule returns Fig. 3's control-bit schedule:
// min(s, 2n-2-s) per stage.
func (b *Network) PaperSchedule() []int {
	sch := make([]int, b.stages)
	for s := range sch {
		sch[s] = b.ControlBit(s)
	}
	return sch
}

// ReversedSchedule returns the MSB-first mirror of the paper's
// schedule: n-1-min(s, 2n-2-s). Used by the ablation experiments.
func (b *Network) ReversedSchedule() []int {
	sch := make([]int, b.stages)
	for s := range sch {
		sch[s] = b.n - 1 - b.ControlBit(s)
	}
	return sch
}

// ConstantSchedule returns a schedule that examines the same bit at
// every stage — a deliberately broken design for the ablation.
func (b *Network) ConstantSchedule(bit int) []int {
	sch := make([]int, b.stages)
	for s := range sch {
		sch[s] = bit
	}
	return sch
}
