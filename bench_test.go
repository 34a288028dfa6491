// Package repro's root benchmark harness: one testing.B benchmark per
// experiment (E1..E31 in DESIGN.md), so every table and figure of the
// paper has a `go test -bench` target. Custom metrics report the
// paper's own cost measures (switches, gate delays, unit routes)
// alongside wall-clock time.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/crossbar"
	"repro/internal/engine"
	"repro/internal/gcn"
	"repro/internal/lenfant"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/omega"
	"repro/internal/parsetup"
	"repro/internal/perm"
	"repro/internal/psetup"
	"repro/internal/recirc"
	"repro/internal/simd"
)

const benchN = 10 // default network size for benches: N = 1024

// BenchmarkE1_Construct measures building B(n) and reports the
// structural counts of Fig. 1 / Section I.
func BenchmarkE1_Construct(b *testing.B) {
	var net *core.Network
	for i := 0; i < b.N; i++ {
		core.New(1) // New shares the network it built last: make it build B(n) again
		net = core.New(benchN)
	}
	b.ReportMetric(float64(net.SwitchCount()), "switches")
	b.ReportMetric(float64(net.Stages()), "stages")
}

// BenchmarkE2_SwitchLogic measures the per-switch decision: one
// self-routing pass costs exactly SwitchCount() control-bit tests.
func BenchmarkE2_SwitchLogic(b *testing.B) {
	net := core.New(benchN)
	d := perm.BitReversal(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SelfRoute(d)
	}
	b.ReportMetric(float64(net.SwitchCount()), "switch-decisions/op")
}

// BenchmarkE3_BitReversal is the Fig. 4 permutation at scale.
func BenchmarkE3_BitReversal(b *testing.B) {
	net := core.New(benchN)
	d := perm.BitReversal(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.SelfRoute(d).OK() {
			b.Fatal("bit reversal misrouted")
		}
	}
	b.ReportMetric(float64(net.GateDelay()), "gate-delays/op")
}

// BenchmarkE4_Reject measures detecting a non-F permutation (Fig. 5's
// witness embedded in a large identity).
func BenchmarkE4_Reject(b *testing.B) {
	N := 1 << benchN
	d := perm.Identity(N)
	d[0], d[1], d[2], d[3] = 1, 3, 2, 0
	net := core.New(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.SelfRoute(d).OK() {
			b.Fatal("embedded Fig. 5 witness should misroute")
		}
	}
}

// BenchmarkE5_TableI routes all seven Table I permutations per
// iteration.
func BenchmarkE5_TableI(b *testing.B) {
	net := core.New(benchN)
	perms := []perm.Perm{
		perm.MatrixTranspose(benchN), perm.BitReversal(benchN),
		perm.VectorReversal(benchN), perm.PerfectShuffle(benchN),
		perm.Unshuffle(benchN), perm.ShuffledRowMajor(benchN),
		perm.BitShuffle(benchN),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range perms {
			if !net.SelfRoute(d).OK() {
				b.Fatal("Table I permutation misrouted")
			}
		}
	}
}

// BenchmarkE6_Characterize measures the Theorem 1 recursive membership
// test against the full network simulation.
func BenchmarkE6_Characterize(b *testing.B) {
	d := perm.BitReversal(benchN)
	b.Run("theorem1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !perm.InF(d) {
				b.Fatal("bit reversal must be in F")
			}
		}
	})
	b.Run("simulation", func(b *testing.B) {
		net := core.New(benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !net.Realizes(d) {
				b.Fatal("bit reversal must route")
			}
		}
	})
}

// BenchmarkE7_BPC generates and routes random BPC permutations
// (Theorem 2 at scale).
func BenchmarkE7_BPC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := core.New(benchN)
	specs := make([]perm.Perm, 64)
	for i := range specs {
		specs[i] = perm.RandomBPC(benchN, rng).Perm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.SelfRoute(specs[i%len(specs)]).OK() {
			b.Fatal("BPC permutation misrouted")
		}
	}
}

// BenchmarkE8_InvOmega routes random inverse-omega permutations
// (Theorem 3 at scale).
func BenchmarkE8_InvOmega(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := core.New(benchN)
	N := 1 << benchN
	perms := make([]perm.Perm, 64)
	for i := range perms {
		perms[i] = perm.POrderingShift(benchN, 2*rng.Intn(N/2)+1, rng.Intn(N))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.SelfRoute(perms[i%len(perms)]).OK() {
			b.Fatal("inverse-omega permutation misrouted")
		}
	}
}

// BenchmarkE9_OmegaForce routes omega permutations with the omega bit.
func BenchmarkE9_OmegaForce(b *testing.B) {
	net := core.New(benchN)
	d := perm.CyclicShift(benchN, 77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.OmegaRoute(d).OK() {
			b.Fatal("omega permutation misrouted with omega bit")
		}
	}
}

// BenchmarkE10_Cardinality measures the class predicates used by the
// cardinality studies on random permutations.
func BenchmarkE10_Cardinality(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	N := 1 << benchN
	perms := make([]perm.Perm, 64)
	for i := range perms {
		perms[i] = perm.Random(N, rng)
	}
	b.Run("InF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perm.InF(perms[i%len(perms)])
		}
	})
	b.Run("IsOmega", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perm.IsOmega(perms[i%len(perms)])
		}
	})
	b.Run("RecognizeBPC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perm.RecognizeBPC(perms[i%len(perms)])
		}
	})
}

// BenchmarkE11_Composite builds and routes Theorem 4/5/6 composites.
func BenchmarkE11_Composite(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	part := perm.NewJPartition(benchN, []int{0, 3, 5, 8})
	G := make([]perm.Perm, part.Blocks())
	for i := range G {
		G[i] = perm.RandomBPC(benchN-4, rng).Perm()
	}
	B := perm.RandomBPC(4, rng).Perm()
	net := core.New(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := perm.Theorem5(part, G, B)
		if !net.SelfRoute(g).OK() {
			b.Fatal("Theorem 5 composite misrouted")
		}
	}
}

// BenchmarkE12_Product measures product membership testing (the
// closure counterexample generalized: compose two F members, test).
func BenchmarkE12_Product(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	N := 1 << benchN
	x := perm.RandomBPC(benchN, rng).Perm()
	y := perm.POrderingShift(benchN, 2*rng.Intn(N/2)+1, 3)
	b.ResetTimer()
	inF := 0
	for i := 0; i < b.N; i++ {
		if perm.InF(x.Then(y)) {
			inF++
		}
	}
	_ = inF
}

// BenchmarkE13_Networks races the four networks on the permutations
// each can route.
func BenchmarkE13_Networks(b *testing.B) {
	d := perm.CyclicShift(benchN, 1) // routable by all four fabrics
	b.Run("benes-selfrouting", func(b *testing.B) {
		net := core.New(benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SelfRoute(d)
		}
		b.ReportMetric(float64(net.SwitchCount()), "switches")
		b.ReportMetric(float64(net.GateDelay()), "gate-delays")
	})
	b.Run("omega", func(b *testing.B) {
		net := omega.New(benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Route(d)
		}
		b.ReportMetric(float64(net.SwitchCount()), "switches")
		b.ReportMetric(float64(net.GateDelay()), "gate-delays")
	})
	b.Run("batcher", func(b *testing.B) {
		net := batcher.New(benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Route(d)
		}
		b.ReportMetric(float64(net.SwitchCount()), "switches")
		b.ReportMetric(float64(net.GateDelay()), "gate-delays")
	})
	b.Run("crossbar", func(b *testing.B) {
		net := crossbar.New(1 << benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Route(d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(net.SwitchCount()), "switches")
		b.ReportMetric(float64(net.GateDelay()), "gate-delays")
	})
}

// BenchmarkE14_Setup measures the O(N log N) looping setup against the
// setup-free self-routing pass.
func BenchmarkE14_Setup(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 10, 12} {
		net := core.New(n)
		d := perm.Random(1<<uint(n), rng)
		b.Run("loopingN="+itoa(1<<uint(n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.Setup(d)
			}
		})
	}
	net := core.New(12)
	f := perm.BitReversal(12)
	b.Run("selfrouteN=4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.SelfRoute(f)
		}
	})
}

// BenchmarkE15_CCC measures the cube algorithm and reports its
// unit-route counts.
func BenchmarkE15_CCC(b *testing.B) {
	d := perm.BitReversal(benchN)
	var routes int
	for i := 0; i < b.N; i++ {
		c := simd.NewCCC(d, 1)
		c.Permute()
		if !c.OK() {
			b.Fatal("CCC misrouted")
		}
		routes = c.Routes()
	}
	b.ReportMetric(float64(routes), "unit-routes")
}

// BenchmarkE16_PSC measures the shuffle algorithm (4 log N - 3 routes).
func BenchmarkE16_PSC(b *testing.B) {
	d := perm.BitReversal(benchN)
	var routes int
	for i := 0; i < b.N; i++ {
		p := simd.NewPSC(d)
		p.Permute()
		if !p.OK() {
			b.Fatal("PSC misrouted")
		}
		routes = p.Routes()
	}
	b.ReportMetric(float64(routes), "unit-routes")
}

// BenchmarkE17_MCC measures the mesh algorithm (7 sqrt(N) - 8 routes).
func BenchmarkE17_MCC(b *testing.B) {
	d := perm.MatrixTranspose(benchN)
	var routes int
	for i := 0; i < b.N; i++ {
		m := simd.NewMCC(d)
		m.Permute()
		if !m.OK() {
			b.Fatal("MCC misrouted")
		}
		routes = m.Routes()
	}
	b.ReportMetric(float64(routes), "unit-routes")
}

// BenchmarkE18_SortBaseline races F-routing against bitonic sorting on
// the cube.
func BenchmarkE18_SortBaseline(b *testing.B) {
	d := perm.BitReversal(benchN)
	b.Run("frouting", func(b *testing.B) {
		var routes int
		for i := 0; i < b.N; i++ {
			c := simd.NewCCC(d, 1)
			c.Permute()
			routes = c.Routes()
		}
		b.ReportMetric(float64(routes), "unit-routes")
	})
	b.Run("bitonic", func(b *testing.B) {
		var routes int
		for i := 0; i < b.N; i++ {
			_, routes = simd.SortCCC(d, 1)
		}
		b.ReportMetric(float64(routes), "unit-routes")
	})
}

// BenchmarkE19_Tags measures local tag computation from compact forms.
func BenchmarkE19_Tags(b *testing.B) {
	spec := perm.BitReversalBPC(benchN)
	b.Run("bpc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.TagsFromBPC(spec)
		}
	})
	b.Run("affine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.TagsFromAffine(benchN, 5, 3)
		}
	})
}

// BenchmarkE20_Pipeline measures pipelined throughput (vectors/op) and
// the concurrent engine.
func BenchmarkE20_Pipeline(b *testing.B) {
	net := core.New(6)
	N := 64
	d := perm.BitReversal(6)
	data := make([]int, N)
	b.Run("registered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := core.NewPipeline[int](net)
			for v := 0; v < 16; v++ {
				p.Step(d, data)
			}
			p.Drain()
			if len(p.Output()) != 16 {
				b.Fatal("pipeline lost vectors")
			}
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		eng := netsim.New(net)
		vecs := make([]perm.Perm, 16)
		for k := range vecs {
			vecs[k] = d
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, _ := eng.Run(vecs)
			if len(results) != 16 {
				b.Fatal("engine lost vectors")
			}
		}
	})
}

// BenchmarkE21_FUB routes every member of every FUB family.
func BenchmarkE21_FUB(b *testing.B) {
	net := core.New(8)
	var members []perm.Perm
	for _, fam := range lenfant.Families() {
		members = append(members, fam.Members(8)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.SelfRoute(members[i%len(members)]).OK() {
			b.Fatal("FUB member misrouted")
		}
	}
}

// BenchmarkE22_Ablation compares the paper's rule with its mirrored
// variant (same cost, different class) on a full routing pass.
func BenchmarkE22_Ablation(b *testing.B) {
	net := core.New(benchN)
	d := perm.BitReversal(benchN)
	sch := net.PaperSchedule()
	b.Run("paper-rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.RouteWithSchedule(d, sch, core.UpperInput)
		}
	})
	b.Run("mirror-rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.RouteWithSchedule(d, sch, core.LowerInputInverted)
		}
	})
}

// BenchmarkE23_StructuralCount measures the transfer-matrix |F(n)|
// computation for the largest enumerable base.
func BenchmarkE23_StructuralCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if perm.CountF(3) != 11632 {
			b.Fatal("CountF(3) wrong")
		}
	}
}

// BenchmarkE24_Bounds measures the lower-bound computation used by the
// optimality experiment.
func BenchmarkE24_Bounds(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	spec := perm.RandomBPC(benchN, rng)
	d := spec.Perm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if simd.CCCLowerBound(d) == 0 {
			b.Fatal("unexpected zero bound")
		}
	}
}

// BenchmarkE25_ParallelSetup races the parallel setup against the
// sequential looping algorithm.
func BenchmarkE25_ParallelSetup(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	net := core.New(benchN)
	d := perm.Random(1<<benchN, rng)
	b.Run("parallel", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, stats, err := parsetup.Setup(net, d)
			if err != nil {
				b.Fatal(err)
			}
			rounds = stats.TotalRounds()
		}
		b.ReportMetric(float64(rounds), "parallel-rounds")
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Setup(d)
		}
	})
}

// BenchmarkE26_Recirculating measures the single-column fabric and
// reports its pass count.
func BenchmarkE26_Recirculating(b *testing.B) {
	r := recirc.New(benchN)
	d := perm.BitReversal(benchN)
	var passes int
	for i := 0; i < b.N; i++ {
		res := r.RouteF(d)
		if !res.OK() {
			b.Fatal("recirc misrouted an F permutation")
		}
		passes = res.Passes()
	}
	b.ReportMetric(float64(passes), "passes")
	b.ReportMetric(float64(r.SwitchCount()), "switches")
}

// BenchmarkE27_Faults measures fault-avoiding setup against the plain
// looping algorithm.
func BenchmarkE27_Faults(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	net := core.New(benchN)
	d := perm.Random(1<<benchN, rng)
	faults := []core.Fault{{Stage: 3, Switch: 17, StuckCrossed: true}}
	b.Run("setup-avoiding", func(b *testing.B) {
		ok := 0
		for i := 0; i < b.N; i++ {
			if _, k := net.SetupAvoiding(d, faults); k {
				ok++
			}
		}
	})
	b.Run("faulty-selfroute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.RouteWithFaults(d, faults, nil)
		}
	})
}

// BenchmarkE28_GCN measures generalized-connection setup and carry.
func BenchmarkE28_GCN(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := gcn.New(benchN)
	N := 1 << benchN
	req := make(gcn.Request, N)
	for o := range req {
		req[o] = rng.Intn(N)
	}
	data := make([]int, N)
	b.Run("connect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Connect(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	plan, err := g.Connect(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("carry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gcn.Carry(plan, data)
		}
	})
	b.ReportMetric(float64(g.SwitchCount()), "switches")
}

// BenchmarkE29_Waksman measures the constraint-steered setup of the
// Waksman-reduced network against the plain looping algorithm.
func BenchmarkE29_Waksman(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	net := core.New(benchN)
	d := perm.Random(1<<benchN, rng)
	b.Run("waksman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := net.WaksmanSetup(d); !ok {
				b.Fatal("Waksman setup failed")
			}
		}
		b.ReportMetric(float64(net.WaksmanProgrammableCount()), "programmable-switches")
	})
	b.Run("full-benes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Setup(d)
		}
		b.ReportMetric(float64(net.SwitchCount()), "programmable-switches")
	})
}

// BenchmarkE30_TwoPass measures setup-free arbitrary permutation: the
// O(N log N) host-side factorization plus two tag-driven passes.
func BenchmarkE30_TwoPass(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	net := core.New(benchN)
	d := perm.Random(1<<benchN, rng)
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perm.OmegaFactor(d)
		}
	})
	b.Run("route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !net.TwoPassRoute(d).OK() {
				b.Fatal("two-pass failed")
			}
		}
		b.ReportMetric(float64(2*net.GateDelay()), "gate-delays")
	})
}

// BenchmarkE31_CostModel evaluates the Section IV timing model across
// the full strategy grid (pure arithmetic; the metric of interest is
// the modelled speedup, reported as a custom metric).
func BenchmarkE31_CostModel(b *testing.B) {
	p := costmodel.Typical1980()
	var speedup float64
	for i := 0; i < b.N; i++ {
		for _, s := range costmodel.Strategies() {
			_ = costmodel.Time(s, benchN, p)
		}
		speedup = costmodel.Speedup(costmodel.BenesSelfRoute, costmodel.CCCSim, benchN, p)
	}
	b.ReportMetric(speedup, "benes-vs-ccc-speedup")
}

// BenchmarkE32_Machine runs the dual-network machine on a structured
// request (the common case it was proposed for).
func BenchmarkE32_Machine(b *testing.B) {
	m := machine.New(benchN, costmodel.Typical1980())
	d := perm.MatrixTranspose(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(d)
	}
	b.ReportMetric(m.Time()/float64(b.N), "modelled-time/op")
}

// BenchmarkE33_Engine measures the serving engine of internal/engine
// at N=1024: the per-call Setup+route baseline, a cold cache (every
// request computes a plan), and a warm cache (hits replay the cached
// plan, skipping setup entirely). The warm/baseline ratio is the
// serving-layer payoff of caching the paper's expensive setup step.
func BenchmarkE33_Engine(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	d := perm.Random(1<<benchN, rng) // almost surely outside F -> looping setup
	data := make([]int, 1<<benchN)
	for i := range data {
		data[i] = i
	}
	b.Run("per-call-setup", func(b *testing.B) {
		net := core.New(benchN)
		for i := 0; i < b.N; i++ {
			st := net.Setup(d)
			res := net.ExternalRoute(d, st)
			_ = perm.Apply(res.Realized, data)
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		eng, err := engine.New[int](engine.Config{LogN: benchN})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		eng.Route(d, data) // prime the plan cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := eng.Route(d, data); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
		b.StopTimer()
		b.ReportMetric(eng.Stats().HitRate, "hit-rate")
	})
}

// BenchmarkE34_ColdSetup races the multicore worker-pool setup
// (internal/psetup) against the serial looping algorithm on cold
// arbitrary permutations — the engine's non-F(n) miss path. Rotating
// seeded permutations keep every call cold; run with GOMAXPROCS > 1
// to see the fork-join payoff.
func BenchmarkE34_ColdSetup(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	net := core.New(benchN)
	perms := make([]perm.Perm, 8)
	for i := range perms {
		perms[i] = perm.Random(1<<benchN, rng)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Setup(perms[i%len(perms)])
		}
	})
	b.Run("workers", func(b *testing.B) {
		r := psetup.New(net, psetup.Config{})
		for i := 0; i < b.N; i++ {
			if _, err := r.Setup(perms[i%len(perms)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
