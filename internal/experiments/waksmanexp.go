package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "E29",
		Paper: "Section I (Waksman [10])",
		Title: "Waksman's reduction: N logN - N + 1 programmable switches suffice for all N!",
		Run:   runE29,
	})
}

func runE29(w io.Writer) {
	rng := rand.New(rand.NewSource(12))
	t := report.NewTable("Waksman-reduced Benes network",
		"n", "N", "Benes switches", "fixed straight (N/2-1)", "programmable (NlogN-N+1)",
		"random perms realized", "self-routing F survivors")
	for _, n := range []int{2, 3, 5, 7, 9} {
		b := core.New(n)
		N := 1 << uint(n)
		fixed := b.WaksmanFixed()
		const trials = 100
		realized := 0
		for trial := 0; trial < trials; trial++ {
			p := perm.Random(N, rng)
			if st, ok := b.WaksmanSetup(p); ok && b.ExternalRoute(p, st).OK() {
				realized++
			}
		}
		// How much of F survives when the fixed switches are frozen and
		// the network self-routes?
		fSurvive := 0
		const fTrials = 100
		for trial := 0; trial < fTrials; trial++ {
			p := perm.RandomF(n, rng)
			if b.RouteWithFaults(p, fixed, nil).OK() {
				fSurvive++
			}
		}
		t.Add(n, N, b.SwitchCount(), b.WaksmanFixedCount(), b.WaksmanProgrammableCount(),
			fmt.Sprintf("%d/%d", realized, trials), fmt.Sprintf("%d/%d", fSurvive, fTrials))
	}
	t.Note("external setup: all N! still realizable (Waksman's theorem, verified exhaustively for N=4,8 in the suite)")
	t.Note("self-routing: freezing switches conflicts with tag-dictated states, so the reduction is external-setup-only")
	fmt.Fprint(w, t)
}
