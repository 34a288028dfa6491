package engine

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/perm"
)

// TestEngineJournalRoute: with a journal wired in, every served /route
// admission lands in the log with the realized-delivery digest.
func TestEngineJournalRoute(t *testing.T) {
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	eng, err := New[int](Config{LogN: 3, Journal: j.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	d := perm.BitReversal(3)
	data := benchPayload(8)
	for i := 0; i < 3; i++ {
		if resp := eng.Route(d, data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	recs, err := j.Read(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("journaled %d records, want 3", len(recs))
	}
	want := journal.DigestPerm(d)
	for _, r := range recs {
		if r.Kind != journal.KindRoute || r.Delivered != want {
			t.Fatalf("record %d: kind %v delivered %x, want route/%x", r.Seq, r.Kind, r.Delivered, want)
		}
	}
}

// TestEngineJournalDisabledRouteAllocs proves the disabled hot path
// pays nothing for the journal hook: a warm Route with no journal
// configured stays within the 1 alloc/op budget TestEngineWarmRouteAllocs
// pins, because the nil-safe Writer guard short-circuits before any
// digest work.
func TestEngineJournalDisabledRouteAllocs(t *testing.T) {
	const logN = 6
	eng, err := New[int](Config{LogN: logN})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := perm.BitReversal(logN)
	data := benchPayload(1 << logN)
	eng.Route(d, data) // prime the cache

	allocs := testing.AllocsPerRun(200, func() {
		if resp := eng.Route(d, data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	})
	if allocs > 1 {
		t.Fatalf("journal-disabled warm Route allocates %.1f objects/op, budget is 1", allocs)
	}
}
