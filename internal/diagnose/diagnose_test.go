package diagnose

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perm"
)

// TestProbePoolDeterministic verifies the pool is a pure function of
// (geometry, seed, extra): the reproducibility every report and CI
// rerun depends on.
func TestProbePoolDeterministic(t *testing.T) {
	net := core.New(4)
	a := buildPool(net, 42, 16)
	b := buildPool(net, 42, 16)
	if len(a) != len(b) {
		t.Fatalf("pool sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("pool probe %d differs: %v vs %v", i, a[i], b[i])
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("pool probe %d invalid: %v", i, err)
		}
	}
	// Index 2 is the first seeded random probe (0 and 1 are the
	// seed-independent sweep masks, and single-bit masks trail).
	if c := buildPool(net, 43, 16); c[2].Equal(a[2]) {
		t.Fatal("different seeds produced identical random probes")
	}
}

// TestPoolSeparatesAllSingleFaults is the pool's power guarantee: over
// the default pool, every single stuck-switch candidate — both states
// of every switch, plus the healthy hypothesis — predicts a distinct
// observation sequence, so full localization is information-
// theoretically possible. This is exactly where XOR masks alone fail
// (self-routing compensates early-stage swaps of bit-complementary tag
// pairs); the random probes carry the separation.
func TestPoolSeparatesAllSingleFaults(t *testing.T) {
	for n := 2; n <= 4; n++ {
		net := core.New(n)
		fr := net.NewFaultRouter()
		pool := buildPool(net, 7, 4*n)
		pred := make(perm.Perm, net.N())
		sigs := make(map[string]string)
		cands := append([]core.Fault{{Stage: -1}}, net.EnumerateFaults()...)
		for _, f := range cands {
			var fs []core.Fault
			name := "healthy"
			if f.Stage >= 0 {
				fs = []core.Fault{f}
				name = fmt.Sprintf("%+v", f)
			}
			var sb strings.Builder
			for _, d := range pool {
				fr.Realized(d, fs, nil, pred)
				sb.WriteString(pred.String())
			}
			if other, dup := sigs[sb.String()]; dup {
				t.Errorf("n=%d: %s and %s are observationally equivalent under the pool", n, name, other)
			}
			sigs[sb.String()] = name
		}
	}
}

// TestExhaustiveSingleFaultN8 is the acceptance criterion: at N=8, for
// every possible single (stage, switch, stuckState) fault, a diagnosis
// session against the gate-level simulator must rank the injected
// fault #1 in its posterior within the log-bounded default budget
// (2 log N + 2 probes), with the healthy hypothesis eliminated and the
// survivor set collapsed to a handful of observational equivalents.
func TestExhaustiveSingleFaultN8(t *testing.T) {
	net := core.New(3)
	p, err := New(Config{Net: net, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*net.LogN() + 2
	maxProbes, maxSurvivors := 0, 0
	for _, f := range net.EnumerateFaults() {
		rep, err := p.Diagnose(NewSimOracle(net, []core.Fault{f}))
		if err != nil {
			t.Fatalf("fault %+v: %v", f, err)
		}
		rank, found := rep.RankOf([]core.Fault{f})
		if !found {
			t.Fatalf("fault %+v: injected fault not among candidates", f)
		}
		if rank != 1 {
			t.Errorf("fault %+v: ranked %d, want 1 (probes %d, survivors %d)", f, rank, rep.Probes, rep.Survivors)
		}
		if rep.Probes > budget {
			t.Errorf("fault %+v: used %d probes, budget %d", f, rep.Probes, budget)
		}
		if rep.Healthy {
			t.Errorf("fault %+v: healthy hypothesis survived", f)
		}
		if !rep.Converged {
			t.Errorf("fault %+v: session did not converge (survivors %d)", f, rep.Survivors)
		}
		if rep.Probes > maxProbes {
			maxProbes = rep.Probes
		}
		if rep.Survivors > maxSurvivors {
			maxSurvivors = rep.Survivors
		}
		if len(rep.Top) == 0 || rep.Top[0].Rank != 1 || rep.Top[0].Mismatches != 0 {
			t.Errorf("fault %+v: malformed posterior head %+v", f, rep.Top)
		}
	}
	// Every session should collapse 41 candidates to a tiny equivalence
	// class; 4 allows middle-stage switches whose two stuck states a
	// permutation probe cannot always separate from a neighbour's.
	if maxSurvivors > 4 {
		t.Errorf("worst survivor set %d, want <= 4", maxSurvivors)
	}
	t.Logf("N=8 exhaustive: max probes %d (budget %d), max survivors %d", maxProbes, budget, maxSurvivors)
}

// TestExhaustiveSingleFaultN16 extends the sweep one size up to guard
// the probe schedule against n-specific luck.
func TestExhaustiveSingleFaultN16(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := core.New(4)
	p, err := New(Config{Net: net, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range net.EnumerateFaults() {
		rep, err := p.Diagnose(NewSimOracle(net, []core.Fault{f}))
		if err != nil {
			t.Fatalf("fault %+v: %v", f, err)
		}
		if rank, _ := rep.RankOf([]core.Fault{f}); rank != 1 {
			t.Errorf("fault %+v: ranked %d, want 1", f, rank)
		}
		if rep.Healthy {
			t.Errorf("fault %+v: healthy hypothesis survived", f)
		}
	}
}

// TestHealthyNetwork: with no fault injected, the session must
// eliminate every fault candidate within budget and leave the healthy
// hypothesis as the sole survivor.
func TestHealthyNetwork(t *testing.T) {
	net := core.New(3)
	p, err := New(Config{Net: net, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Diagnose(NewSimOracle(net, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatal("healthy hypothesis eliminated on a healthy network")
	}
	if rep.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1 (healthy only)", rep.Survivors)
	}
	if rank, found := rep.RankOf(nil); !found || rank != 1 {
		t.Fatalf("healthy rank = %d (found %v), want 1", rank, found)
	}
	if !rep.Converged {
		t.Fatal("healthy session did not converge")
	}
}

// TestPairBestEffort: MaxFaults=2 enumerates pair hypotheses after the
// single pass; a genuinely double-faulted oracle must rank the
// injected pair #1 (no hypothesis explains the observations better).
func TestPairBestEffort(t *testing.T) {
	net := core.New(3)
	p, err := New(Config{Net: net, MaxFaults: 2, Seed: 7, Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][]core.Fault{
		{{Stage: 0, Switch: 0, StuckCrossed: true}, {Stage: 3, Switch: 2, StuckCrossed: false}},
		{{Stage: 1, Switch: 1, StuckCrossed: true}, {Stage: 4, Switch: 3, StuckCrossed: true}},
		{{Stage: 2, Switch: 0, StuckCrossed: false}, {Stage: 2, Switch: 3, StuckCrossed: true}},
	}
	for _, fs := range pairs {
		rep, err := p.Diagnose(NewSimOracle(net, fs))
		if err != nil {
			t.Fatalf("pair %+v: %v", fs, err)
		}
		rank, found := rep.RankOf(fs)
		if !found {
			t.Fatalf("pair %+v: not among candidates", fs)
		}
		if rank != 1 {
			t.Errorf("pair %+v: ranked %d, want 1", fs, rank)
		}
		if rep.Healthy {
			t.Errorf("pair %+v: healthy hypothesis survived", fs)
		}
	}
}

// TestDeterministicSessions: equal configs against equal oracles run
// identical probe sequences and produce identical posteriors.
func TestDeterministicSessions(t *testing.T) {
	net := core.New(4)
	fault := []core.Fault{{Stage: 2, Switch: 5, StuckCrossed: true}}
	run := func() *Report {
		p, err := New(Config{Net: net, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Diagnose(NewSimOracle(net, fault))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Probes != b.Probes || a.Survivors != b.Survivors || len(a.Top) != len(b.Top) {
		t.Fatalf("sessions diverged: %+v vs %+v", a, b)
	}
	for i := range a.Obs {
		if !a.Obs[i].Probe.Equal(b.Obs[i].Probe) {
			t.Fatalf("probe %d differs: %v vs %v", i, a.Obs[i].Probe, b.Obs[i].Probe)
		}
	}
	for i := range a.Top {
		if a.Top[i].Rank != b.Top[i].Rank || a.Top[i].Candidate.key() != b.Top[i].Candidate.key() {
			t.Fatalf("posterior entry %d differs", i)
		}
	}
}

// TestOracleErrors: probe failures surface, config misuse is rejected.
func TestOracleErrors(t *testing.T) {
	net := core.New(3)
	p, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	oracleErr := OracleFunc(func(perm.Perm) (perm.Perm, error) {
		return nil, errors.New("bus fault")
	})
	if _, err := p.Diagnose(oracleErr); err == nil || !strings.Contains(err.Error(), "probe 0") {
		t.Fatalf("want wrapped probe error, got %v", err)
	}
	short := OracleFunc(func(perm.Perm) (perm.Perm, error) {
		return perm.Identity(4), nil
	})
	if _, err := p.Diagnose(short); err == nil || !strings.Contains(err.Error(), "outputs") {
		t.Fatalf("want length error, got %v", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for missing Net")
	}
	if _, err := New(Config{Net: net, MaxFaults: 3}); err == nil {
		t.Fatal("want error for MaxFaults > 2")
	}
}

// TestMetricsAccounting: counters move and the registry renders them.
func TestMetricsAccounting(t *testing.T) {
	net := core.New(3)
	met := &Metrics{}
	p, err := New(Config{Net: net, Seed: 7, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	fault := []core.Fault{{Stage: 1, Switch: 2, StuckCrossed: true}}
	rep, err := p.Diagnose(NewSimOracle(net, fault))
	if err != nil {
		t.Fatal(err)
	}
	if met.sessions.Value() != 1 {
		t.Fatalf("sessions = %d, want 1", met.sessions.Value())
	}
	if met.probes.Value() != int64(rep.Probes) {
		t.Fatalf("probes = %d, want %d", met.probes.Value(), rep.Probes)
	}
	if met.eliminated.Value() != int64(rep.Eliminated) {
		t.Fatalf("eliminated = %d, want %d", met.eliminated.Value(), rep.Eliminated)
	}
	reg := obs.NewRegistry()
	met.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"benes_diagnose_sessions_total 1",
		"benes_diagnose_probes_total",
		"benes_diagnose_eliminated_total",
		"benes_diagnose_elimination_rate",
		"benes_diagnose_latency_seconds_count 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// FuzzDiagnoseSingleFault: any valid single fault must be ranked #1 by
// a session against the simulator oracle — the fuzz form of the
// exhaustive N=8 sweep, with the fault coordinates and pool seed drawn
// from the corpus.
func FuzzDiagnoseSingleFault(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, int64(1))
	f.Add(uint8(2), uint8(3), true, int64(42))
	f.Add(uint8(4), uint8(1), true, int64(-9))
	net := core.New(3)
	f.Fuzz(func(t *testing.T, stage, sw uint8, stuck bool, seed int64) {
		fault := core.Fault{
			Stage:        int(stage) % net.Stages(),
			Switch:       int(sw) % net.SwitchesPerStage(),
			StuckCrossed: stuck,
		}
		p, err := New(Config{Net: net, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Diagnose(NewSimOracle(net, []core.Fault{fault}))
		if err != nil {
			t.Fatal(err)
		}
		rank, found := rep.RankOf([]core.Fault{fault})
		if !found || rank != 1 {
			t.Fatalf("fault %+v seed %d: rank %d (found %v), want 1", fault, seed, rank, found)
		}
		if budget := 2*net.LogN() + 2; rep.Probes > budget {
			t.Fatalf("fault %+v seed %d: %d probes exceeds budget %d", fault, seed, rep.Probes, budget)
		}
		// An arbitrary seed may draw a pool too weak to kill the healthy
		// hypothesis within the log budget (the deterministic exhaustive
		// sweeps pin that stronger guarantee for the default seed); the
		// injected fault must still never be out-ranked.
	})
}
