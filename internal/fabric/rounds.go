package fabric

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/perm"
)

// This file is the fabric's round-scheduling hook for the collective
// operations layer (internal/collective). A collective is compiled
// into a sequence of whole-permutation rounds; unlike packets, rounds
// bypass the VOQ/frame scheduler entirely — the permutation is already
// decided — and go straight to a switching plane. The collective
// executor round-robins its rounds across planes (the `prefer` hint)
// so K rounds traverse the fabric concurrently, and each plane's plan
// cache serves a repeated round without setup.

// RoundResult reports one collective round served by RouteRound.
type RoundResult struct {
	// Plane is the plane that served the round (after any failover).
	Plane int
	// Kind records the setup path: PlanSelfRouted rounds paid no
	// looping setup, PlanLooped rounds fell back to it.
	Kind engine.PlanKind
	// CacheHit is true when an earlier round on the serving plane had
	// already resolved the plan.
	CacheHit bool
}

// RouteRound serves one whole-permutation round synchronously on a
// healthy plane. prefer selects the plane to try first; an unhealthy
// or misrouting plane fails the round over to the next healthy one,
// exactly like frame dispatch. dest is validated before any plane is
// touched, so a bad round can never take a plane out of rotation.
// Every output port of the round is verified before RouteRound returns
// nil.
func (f *Fabric[T]) RouteRound(dest perm.Perm, prefer int) (RoundResult, error) {
	if f.closed.Load() {
		return RoundResult{}, ErrClosed
	}
	if len(dest) != f.n {
		return RoundResult{}, fmt.Errorf("fabric: round size %d does not match N=%d", len(dest), f.n)
	}
	if err := dest.Validate(); err != nil {
		return RoundResult{}, fmt.Errorf("fabric: round: %w", err)
	}
	res, err := f.round(prefer, func(eng *engine.Engine[int], ident []int) (engine.PlanKind, bool, []int, error) {
		resp := eng.Route(dest, ident)
		return resp.Kind, resp.CacheHit, resp.Data, resp.Err
	}, func(data []int) int {
		for i, d := range dest {
			if data[d] != i {
				return d
			}
		}
		return -1
	})
	if err != nil {
		return RoundResult{}, fmt.Errorf("fabric: no healthy plane for round: %w", err)
	}
	if f.jrn.Enabled() {
		f.jrn.Round(res.Plane, dest, journal.DigestPerm(dest))
	}
	return res, nil
}

// round serves one validated collective round on a healthy plane,
// starting at prefer and failing over plane by plane. serve runs the
// round on a plane's engine with the identity payload and returns the
// plan kind, the cache-hit flag and the delivered payload; wrong
// returns the first output of that payload not carrying the source the
// round assigns it, or -1. The error, when every plane refused, is
// errPlaneDown.
func (f *Fabric[T]) round(prefer int, serve roundServe, wrong func(data []int) int) (RoundResult, error) {
	k := len(f.planes)
	prefer = ((prefer % k) + k) % k
	failed := false
	for attempt := 0; attempt < k; attempt++ {
		p := f.planes[(prefer+attempt)%k]
		kind, hit, err := p.round(serve, wrong)
		if err != nil {
			failed = true
			continue
		}
		if failed {
			f.met.roundFailovers.Add(1)
		}
		f.met.rounds.Add(1)
		return RoundResult{Plane: p.id, Kind: kind, CacheHit: hit}, nil
	}
	return RoundResult{}, errPlaneDown
}
