package core

import (
	"fmt"

	"repro/internal/perm"
)

// Fault models a binary switch stuck in one state — the classic Benes
// fault-tolerance scenario. The network's redundancy (every permutation
// has many settings, one free choice per loop of the looping algorithm)
// often lets an external setup route *around* a stuck switch; the
// self-routing scheme has no such freedom, since tags dictate states.
// Experiment E27 quantifies both effects.
type Fault struct {
	Stage        int
	Switch       int
	StuckCrossed bool // the state the switch is frozen in
}

// RouteWithFaults self-routes d but overrides the faulty switches with
// their stuck states, reporting the damage, and tells hits (when
// non-nil) of every fault hit (see HitRecorder). Of two faults on one
// switch the later holds. It panics on a fault out of range.
func (b *Network) RouteWithFaults(d perm.Perm, faults []Fault, hits HitRecorder) *Result {
	for _, f := range faults {
		if err := b.CheckFault(f); err != nil {
			panic(err)
		}
	}
	return b.route(d, rule{}, faults, hits)
}

// CheckFault validates f's coordinates against b's geometry, returning
// an error instead of the panic the routing paths reserve for program
// bugs — the form runtime fault injection (operator input) needs.
func (b *Network) CheckFault(f Fault) error {
	if f.Stage < 0 || f.Stage >= b.stages {
		return fmt.Errorf("core: fault stage %d out of range [0,%d)", f.Stage, b.stages)
	}
	if f.Switch < 0 || f.Switch >= b.size/2 {
		return fmt.Errorf("core: fault switch %d out of range [0,%d)", f.Switch, b.size/2)
	}
	return nil
}

// EnumerateFaults returns every single stuck-switch fault of b: both
// stuck states for each of the SwitchCount() switches — the candidate
// space a single-fault diagnosis must discriminate.
func (b *Network) EnumerateFaults() []Fault {
	out := make([]Fault, 0, 2*b.stages*(b.size/2))
	for s := 0; s < b.stages; s++ {
		for i := 0; i < b.size/2; i++ {
			out = append(out, Fault{Stage: s, Switch: i, StuckCrossed: false})
			out = append(out, Fault{Stage: s, Switch: i, StuckCrossed: true})
		}
	}
	return out
}

type faultKey struct{ stage, sw int }

func (b *Network) faultMap(faults []Fault) map[faultKey]bool {
	m := make(map[faultKey]bool, len(faults))
	for _, f := range faults {
		if err := b.CheckFault(f); err != nil {
			panic(err)
		}
		m[faultKey{f.Stage, f.Switch}] = f.StuckCrossed
	}
	return m
}

// SetupAvoiding computes switch states realizing d that agree with the
// stuck states of the given faults, using the looping algorithm's free
// choices to steer around them. It returns ok=false when the greedy
// per-level constraint propagation finds a loop with contradictory
// constraints; success is always sound (the returned setting honours
// every fault and realizes d). The procedure is greedy across levels —
// it does not backtrack outer-level choices to relieve inner-level
// conflicts — so a false result means "not found", not "impossible",
// although for single faults it is observed exact on exhaustable sizes.
// It panics with CheckFault's error on a fault out of range.
func (b *Network) SetupAvoiding(d perm.Perm, faults []Fault) (States, bool) {
	if err := d.Validate(); err != nil {
		panic("core: SetupAvoiding: " + err.Error())
	}
	if len(d) != b.size {
		panic("core: SetupAvoiding: size mismatch")
	}
	stuck := b.faultMap(faults)
	st := b.NewStates()
	dests := append([]int(nil), d...)
	if !b.setupAvoid(dests, 0, 0, b.n, st, stuck) {
		return nil, false
	}
	// Defensive re-check: honour every fault and realize d.
	for _, f := range faults {
		if st[f.Stage][f.Switch] != f.StuckCrossed {
			return nil, false
		}
	}
	if !b.ExternalRoute(d, st).OK() {
		return nil, false
	}
	return st, true
}

// setupAvoid mirrors setup (see setup.go) with per-loop constraint
// resolution.
func (b *Network) setupAvoid(dests []int, lo, s0, m int, st States, stuck map[faultKey]bool) bool {
	size := 1 << uint(m)
	if m == 1 {
		want := dests[0] == 1
		if frozen, ok := stuck[faultKey{s0, lo / 2}]; ok && frozen != want {
			return false
		}
		st[s0][lo/2] = want
		return true
	}
	half := size / 2
	lastStage := s0 + 2*m - 2
	invDest := make([]int, size)
	for k, v := range dests {
		invDest[v] = k
	}
	// Constraints on input positions: +1 = must go up, -1 = must go
	// down, 0 = free.
	constrain := make([]int, size)
	apply := func(pos, dir int) bool {
		if constrain[pos] != 0 && constrain[pos] != dir {
			return false
		}
		constrain[pos] = dir
		// The switch partner must go the other way.
		if constrain[pos^1] != 0 && constrain[pos^1] != -dir {
			return false
		}
		constrain[pos^1] = -dir
		return true
	}
	// First-stage stuck switches: state false (straight) sends input 2i
	// up; crossed sends it down.
	for i := 0; i < half; i++ {
		if frozen, ok := stuck[faultKey{s0, lo/2 + i}]; ok {
			dir := 1
			if frozen {
				dir = -1
			}
			if !apply(2*i, dir) {
				return false
			}
		}
	}
	// Last-stage stuck switches: state false means destination 2j is
	// served from the upper subnetwork.
	for j := 0; j < half; j++ {
		if frozen, ok := stuck[faultKey{lastStage, lo/2 + j}]; ok {
			upDest := 2 * j
			if frozen {
				upDest = 2*j + 1
			}
			if !apply(invDest[upDest], 1) {
				return false
			}
			if !apply(invDest[upDest^1], -1) {
				return false
			}
		}
	}
	// Colour the loops, honouring any constrained member.
	const unset, goesUp, goesDown = 0, 1, 2
	up := make([]int, size)
	for start := 0; start < size; start++ {
		if up[start] != unset {
			continue
		}
		// Walk the loop once to find a constrained member.
		dir := goesUp
		pos := start
		for {
			if constrain[pos] == 1 {
				dir = goesUp
				break
			}
			if constrain[pos] == -1 {
				dir = goesDown
				break
			}
			sibIn := invDest[dests[pos]^1]
			pos = sibIn ^ 1
			if pos == start {
				break
			}
		}
		// Walk again from the (possibly shifted) anchor, assigning and
		// verifying every constraint on the way.
		anchor := pos
		cur, curDir := anchor, dir
		for {
			if bad(constrain[cur], curDir) {
				return false
			}
			up[cur] = curDir
			sibIn := invDest[dests[cur]^1]
			opp := goesUp
			if curDir == goesUp {
				opp = goesDown
			}
			if bad(constrain[sibIn], opp) {
				return false
			}
			up[sibIn] = opp
			cur = sibIn ^ 1
			if cur == anchor {
				break
			}
		}
	}
	for i := 0; i < half; i++ {
		st[s0][lo/2+i] = up[2*i] != goesUp
	}
	upDests := make([]int, half)
	downDests := make([]int, half)
	for k, v := range dests {
		if up[k] == goesUp {
			upDests[k/2] = v / 2
			st[lastStage][lo/2+v/2] = v%2 == 1
		} else {
			downDests[k/2] = v / 2
		}
	}
	return b.setupAvoid(upDests, lo, s0+1, m-1, st, stuck) &&
		b.setupAvoid(downDests, lo+half, s0+1, m-1, st, stuck)
}

// bad reports whether an assignment collides with a constraint
// (+1 up / -1 down / 0 free against goesUp=1 / goesDown=2).
func bad(constraint, dir int) bool {
	return (constraint == 1 && dir != 1) || (constraint == -1 && dir != 2)
}
