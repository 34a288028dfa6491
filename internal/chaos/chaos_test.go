package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// TestSuite runs every canned scenario — the chaos gate CI holds under
// the race detector — and requires every invariant to hold.
func TestSuite(t *testing.T) {
	for _, sc := range Suite() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed {
				out, _ := json.MarshalIndent(rep, "", "  ")
				t.Fatalf("invariants failed: %v\nreport:\n%s", rep.Failures(), out)
			}
			if rep.Accepted == 0 {
				t.Fatal("scenario accepted no traffic")
			}
		})
	}
}

// TestReportReproducible: a scenario is a pure function of its
// declaration — two runs produce identical traffic accounting and
// identical diagnosis outcomes (only wall-clock time may differ).
func TestReportReproducible(t *testing.T) {
	sc := Scenario{
		Name:    "repro",
		LogN:    3,
		Planes:  2,
		Seed:    99,
		Packets: 500,
		Mix:     MixSkewed,
		Events: []Event{
			{AtPacket: 100, Kind: EventInject, Plane: 1,
				Faults: []core.Fault{{Stage: 0, Switch: 2, StuckCrossed: true}}},
			{AtPacket: 400, Kind: EventDiagnose, Plane: 1},
		},
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a.ElapsedNs, b.ElapsedNs = 0, 0
	// Per-plane frame counts and failovers (how many frames were queued
	// for the plane when it left rotation) depend on scheduler/router
	// timing; the deterministic contract covers offered traffic,
	// acceptance, delivery, and diagnosis.
	a.Planes, b.Planes = nil, nil
	a.Failovers, b.Failovers = 0, 0
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("reports diverged:\n%s\nvs\n%s", aj, bj)
	}
	if len(a.Diagnoses) != 1 || a.Diagnoses[0].Rank != 1 {
		t.Fatalf("diagnosis did not localize: %+v", a.Diagnoses)
	}
}

// TestSeedEchoedInReport: the report must carry everything needed to
// re-run the scenario, the seed above all.
func TestSeedEchoedInReport(t *testing.T) {
	sc := Scenario{Name: "echo", LogN: 2, Planes: 1, Seed: 777, Packets: 40, Mix: MixUniform}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Scenario Scenario `json:"scenario"`
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Scenario.Seed != 777 || decoded.Scenario.Name != "echo" {
		t.Fatalf("report does not echo the scenario: %+v", decoded.Scenario)
	}
}

// TestInvariantViolationDetected: a scenario that declares saturation
// but never saturates must fail its invariant — the harness has to be
// able to say no.
func TestInvariantViolationDetected(t *testing.T) {
	rep, err := Run(Scenario{
		Name:        "no-saturation",
		LogN:        3,
		Planes:      2,
		Seed:        5,
		Packets:     100,
		Mix:         MixUniform,
		ExpectDrops: true, // uniform load through default-depth VOQs will not drop
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("report passed despite unmet saturation expectation")
	}
	found := false
	for _, inv := range rep.Failures() {
		found = found || inv.Name == "saturation_drops"
	}
	if !found {
		t.Fatalf("expected saturation_drops failure, got %v", rep.Failures())
	}
}

// TestScenarioValidation: malformed declarations are rejected as
// errors before any fabric is built.
func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Name: "no-logn", Planes: 1},
		{Name: "no-planes", LogN: 3},
		{Name: "bad-mix", LogN: 3, Planes: 1, Mix: "nonsense"},
		{Name: "bad-plane", LogN: 3, Planes: 1, Events: []Event{{Kind: EventFail, Plane: 3}}},
		{Name: "bad-kind", LogN: 3, Planes: 1, Events: []Event{{Kind: "explode", Plane: 0}}},
		{Name: "bad-fault", LogN: 3, Planes: 1, Events: []Event{{Kind: EventInject, Plane: 0,
			Faults: []core.Fault{{Stage: 99, Switch: 0}}}}},
	}
	for _, sc := range bad {
		if _, err := Run(sc); err == nil {
			t.Errorf("scenario %q accepted", sc.Name)
		}
	}
}

// TestEventsAfterLastOffer: events scheduled at or past Packets fire
// after the final offer — a diagnosis of a plane damaged at the very
// end must still run.
func TestEventsAfterLastOffer(t *testing.T) {
	fault := core.Fault{Stage: 4, Switch: 1, StuckCrossed: false}
	rep, err := Run(Scenario{
		Name:    "late-events",
		LogN:    3,
		Planes:  2,
		Seed:    7,
		Packets: 60,
		Mix:     MixUniform,
		Events: []Event{
			{AtPacket: 60, Kind: EventInject, Plane: 0, Faults: []core.Fault{fault}},
			{AtPacket: 60, Kind: EventDiagnose, Plane: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != 1 {
		t.Fatalf("late diagnosis did not run: %+v", rep.Diagnoses)
	}
	if d := rep.Diagnoses[0]; d.Rank != 1 || !d.Found {
		t.Fatalf("late diagnosis missed the fault: %+v", d)
	}
	if !rep.Passed {
		t.Fatalf("invariants failed: %v", rep.Failures())
	}
}

// TestJournaledScenarioReport: a scenario with the journal on embeds
// the chain head and window bounds in its JSON report, and asserting
// replay adds the divergence audit as a pass/fail invariant.
func TestJournaledScenarioReport(t *testing.T) {
	rep, err := Run(Scenario{
		Name:         "journal-report",
		LogN:         3,
		Planes:       2,
		Seed:         31,
		Packets:      200,
		Mix:          MixUniform,
		Journal:      true,
		AssertReplay: true,
		Events: []Event{
			{AtPacket: 50, Kind: EventFail, Plane: 1},
			{AtPacket: 120, Kind: EventRestore, Plane: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("invariants failed: %v", rep.Failures())
	}
	ji := rep.Journal
	if ji == nil {
		t.Fatal("journaled scenario carries no journal info")
	}
	if ji.From != 1 || ji.To < ji.From || ji.Records == 0 {
		t.Fatalf("bad journal window: %+v", ji)
	}
	if !ji.ChainOK || ji.Head == "" {
		t.Fatalf("chain not verified: %+v", ji)
	}
	if !ji.ReplayRan || ji.ReplayDivergences != 0 || ji.FirstDivergentSeq != 0 {
		t.Fatalf("replay audit: %+v", ji)
	}
	names := make(map[string]bool)
	for _, inv := range rep.Invariants {
		names[inv.Name] = true
	}
	if !names["journal_chain_intact"] || !names["replay_no_divergence"] {
		t.Fatalf("journal invariants missing: %+v", rep.Invariants)
	}
	// The report round-trips through JSON with the journal block intact.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Journal == nil || back.Journal.Head != ji.Head {
		t.Fatalf("journal info lost in JSON round trip: %+v", back.Journal)
	}
}
