package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestHistoryBytes bounds the live heap one /debug/history sample keeps
// on benesd's own registry, built as main builds it with -journal on
// and the other flags at their defaults (flight recorder, 2 planes,
// -history 120). A sample is one row of int64 words: one per counter
// or gauge, 40 per histogram.
func TestHistoryBytes(t *testing.T) {
	const (
		samples = 120
		budget  = 12 << 10
	)
	for _, logN := range []int{6, 8, 10} {
		t.Run(fmt.Sprintf("N=%d", 1<<logN), func(t *testing.T) {
			j, err := journal.New(journal.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			jw := j.Writer()
			eng, err := engine.New[int](engine.Config{
				LogN:     logN,
				Recorder: netsim.NewRecorder(core.New(logN), 1),
				Journal:  jw,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ring := obs.NewTraceRing(64, 0)
			fab, err := fabric.New[int](fabric.Config{LogN: logN, Planes: 2, Record: true, Journal: jw}, newTracedDeliver(ring))
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			col := collective.New[int](fab, collective.Options{})
			o := newObsState(eng, fab, col, j, ring, samples, time.Second, testLogger())

			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 := time.Unix(0, 0)
			for i := 0; i < samples; i++ {
				o.hist.Record(t0.Add(time.Duration(i) * time.Second))
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			if rep := o.hist.Window(0); rep.Samples != samples || len(rep.Series) == 0 {
				t.Fatalf("ring holds %d samples and %d series, want %d samples", rep.Samples, len(rep.Series), samples)
			}
			per := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / samples
			t.Logf("N=%d: %d B live per history sample", 1<<logN, per)
			if per > budget {
				t.Fatalf("a history sample keeps %d B live, budget %d B", per, budget)
			}
			runtime.KeepAlive(o)
		})
	}
}
