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
		ID:    "E27",
		Paper: "extension: Benes redundancy",
		Title: "stuck-switch fault tolerance: self-routing vs setup-around",
		Run:   runE27,
	})
}

// runE27 measures two classic consequences of the Benes network's path
// redundancy under stuck-at switch faults:
//
//  1. self-routing has no freedom (tags dictate states), yet a flipped
//     switch sometimes heals downstream, because the displaced pair
//     re-enters a subnetwork whose self-routing happens to accommodate
//     the swap;
//  2. external setup can actively route around faults using the looping
//     algorithm's per-loop free choices, succeeding for the large
//     majority of single and even multiple faults.
func runE27(w io.Writer) {
	rng := rand.New(rand.NewSource(10))

	t := report.NewTable("self-routing under one stuck switch (random BPC workload, 500 trials each)",
		"n", "N", "harmless (state matched)", "healed downstream", "damaged")
	for _, n := range []int{4, 6, 8} {
		b := core.New(n)
		harmless, healed, damaged := 0, 0, 0
		for trial := 0; trial < 500; trial++ {
			d := perm.RandomBPC(n, rng).Perm()
			clean := b.SelfRoute(d)
			f := core.Fault{
				Stage:        rng.Intn(b.Stages()),
				Switch:       rng.Intn(b.N() / 2),
				StuckCrossed: rng.Intn(2) == 1,
			}
			res := b.RouteWithFaults(d, []core.Fault{f}, nil)
			switch {
			case clean.States[f.Stage][f.Switch] == f.StuckCrossed:
				harmless++
			case res.OK():
				healed++
			default:
				damaged++
			}
		}
		t.Add(n, 1<<uint(n), harmless, healed, damaged)
	}
	t.Note("a random stuck state agrees with the tags about half the time; flips occasionally heal via subnetwork adaptation")
	fmt.Fprint(w, t)

	s := report.NewTable("external setup routing around k stuck switches (greedy loop steering, random perms, 300 trials)",
		"n", "k=1", "k=2", "k=4", "k=8")
	for _, n := range []int{4, 6, 8} {
		b := core.New(n)
		row := []any{n}
		for _, k := range []int{1, 2, 4, 8} {
			succ := 0
			const trials = 300
			for trial := 0; trial < trials; trial++ {
				d := perm.Random(1<<uint(n), rng)
				faults := make([]core.Fault, k)
				for i := range faults {
					faults[i] = core.Fault{
						Stage:        rng.Intn(b.Stages()),
						Switch:       rng.Intn(b.N() / 2),
						StuckCrossed: rng.Intn(2) == 1,
					}
				}
				if _, ok := b.SetupAvoiding(d, faults); ok {
					succ++
				}
			}
			row = append(row, fmt.Sprintf("%d%%", succ*100/trials))
		}
		s.Add(row...)
	}
	s.Note("every reported success is verified end-to-end; failures are 'not found by greedy steering', not proofs of impossibility")
	fmt.Fprint(w, s)
}
