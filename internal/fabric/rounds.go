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
// healthy plane: it resolves the round's switch setting on the plane's
// engine, records it and journals it, and moves no payload — the
// collective layer copies the chunks itself from the round's move
// list. prefer selects the plane to try first; the failover walk moves
// the round on from an unhealthy or failing plane, exactly like frame
// dispatch. dest is validated before any plane is touched, so a bad
// round can never take a plane out of rotation.
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
	var resp engine.Response[int]
	p, err := f.failover(prefer, &f.met.RoundFailovers, func(p *plane) error {
		resp = p.eng.Route(dest, nil)
		return resp.Err
	})
	if err != nil {
		return RoundResult{}, fmt.Errorf("fabric: no healthy plane for round: %w", err)
	}
	p.counts.Rounds.Add(1)
	f.met.Rounds.Add(1)
	if f.jrn.Enabled() {
		f.jrn.Round(p.id, dest, journal.DigestPerm(dest))
	}
	return RoundResult{Plane: p.id, Kind: resp.Kind, CacheHit: resp.CacheHit}, nil
}
