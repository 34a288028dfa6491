package diagnose

import "repro/internal/obs"

// Metrics aggregates prover accounting across sessions, one series a
// field (see obs.Export). A Metrics value must not be copied. Share one
// Metrics across provers to get service-wide totals.
type Metrics struct {
	sessions   obs.Counter `metric:"benes_diagnose_sessions_total" help:"Diagnosis sessions started."`
	probes     obs.Counter `metric:"benes_diagnose_probes_total" help:"Probe permutations issued to oracles."`
	eliminated obs.Counter `metric:"benes_diagnose_eliminated_total" help:"Fault candidates eliminated by contradicting observations."`

	// Latency is the wall-clock distribution of whole diagnosis
	// sessions: probe round-trips plus prediction sweeps.
	Latency obs.Histogram `metric:"benes_diagnose_latency_seconds" help:"Wall-clock duration of whole diagnosis sessions."`
}

// Register exports the prover metrics into reg under the
// benes_diagnose_* names, plus the elimination rate they imply. Values
// are read at scrape time from the same atomics the sessions maintain.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.Export(m, nil)
	reg.GaugeFunc("benes_diagnose_elimination_rate", "Candidates eliminated per probe issued.", nil, func() float64 {
		probes := m.probes.Value()
		if probes == 0 {
			return 0
		}
		return float64(m.eliminated.Value()) / float64(probes)
	})
}
