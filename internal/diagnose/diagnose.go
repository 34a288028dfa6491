// Package diagnose localizes stuck switches in a self-routing Benes
// network from input/output observations alone. The paper's central
// property — every switch state is a deterministic function of the
// destination tags (Fig. 3: stage s reads bit min(s, 2n-2-s) of its
// upper input's tag) — cuts both ways: a stuck switch corrupts a
// *predictable* set of (input, output) pairs, so crafted probe
// permutations can tell candidate faults apart without opening the box.
//
// The prover maintains a candidate set over (stage, switch, stuckState)
// hypotheses (plus the healthy hypothesis, and optionally fault pairs),
// predicts each candidate's realized permutation for a probe with the
// gate-level model of internal/core, and eliminates every candidate the
// observation contradicts. A subtlety makes probe choice interesting:
// self-routing hardware *compensates* for many faults — when a stuck
// switch swaps a bit-complementary tag pair, the downstream switches
// read the swapped tags and adaptively route both to their correct
// outputs, so structured probes (XOR masks in particular) are blind to
// entire stages. The pool therefore leads with two cheap sweep masks
// and then relies on seeded random permutations, whose arbitrary tag
// pairs turn a wrong swap into a cascading, fault-specific misroute
// fingerprint (see buildPool). Probes are chosen adaptively: once the
// survivor set is small, the prover picks the pool probe that best
// splits the survivors' predictions. The result is a ranked likelihood
// posterior under a probe budget. Single faults are localized exactly
// (up to observational equivalence — candidates no probe can tell
// apart tie at rank 1); k <= 2 faults are best-effort via pair
// hypotheses scored against the recorded observations.
package diagnose

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
)

// Candidate is one fault hypothesis: no faults (the healthy
// hypothesis), one stuck switch, or a pair.
type Candidate struct {
	Faults []core.Fault `json:"faults"`
}

// key returns a canonical comparable form (faults sorted by
// coordinate) so set-equal candidates compare equal.
func (c Candidate) key() string {
	fs := append([]core.Fault(nil), c.Faults...)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Stage != fs[j].Stage {
			return fs[i].Stage < fs[j].Stage
		}
		return fs[i].Switch < fs[j].Switch
	})
	s := ""
	for _, f := range fs {
		x := 0
		if f.StuckCrossed {
			x = 1
		}
		s += fmt.Sprintf("%d.%d.%d;", f.Stage, f.Switch, x)
	}
	return s
}

// Observation is one probe and the realized permutation the oracle
// reported for it.
type Observation struct {
	Probe    perm.Perm `json:"probe"`
	Realized perm.Perm `json:"realized"`
}

// Ranked is one posterior entry.
type Ranked struct {
	Candidate Candidate `json:"candidate"`
	// Score is the normalized likelihood of the candidate given every
	// observation, under a small per-probe noise prior: candidates the
	// observations never contradicted share the bulk of the mass.
	Score float64 `json:"score"`
	// Rank is the competition rank: 1 + the number of candidates with
	// strictly higher score. Observationally equivalent survivors tie.
	Rank int `json:"rank"`
	// Mismatches counts probes whose observation contradicted the
	// candidate's prediction (0 for survivors).
	Mismatches int `json:"mismatches"`
}

// Report is the outcome of one diagnosis session.
type Report struct {
	N          int `json:"n"`
	MaxFaults  int `json:"max_faults"`
	Probes     int `json:"probes"`
	Candidates int `json:"candidates"`
	Eliminated int `json:"eliminated"`
	Survivors  int `json:"survivors"`
	// Converged means the surviving candidates are observationally
	// equivalent under the whole probe pool (or a single survivor
	// remains): more probes from this pool cannot split them further.
	Converged bool `json:"converged"`
	// Healthy reports whether the no-fault hypothesis survived.
	Healthy   bool          `json:"healthy"`
	ElapsedNs int64         `json:"elapsed_ns"`
	Top       []Ranked      `json:"top"`
	Obs       []Observation `json:"-"`

	cands []Candidate
	miss  []int
}

// RankOf returns the competition rank of the candidate holding exactly
// the given fault set, and whether that candidate exists in the report.
func (r *Report) RankOf(faults []core.Fault) (int, bool) {
	want := Candidate{Faults: faults}.key()
	idx := -1
	for i, c := range r.cands {
		if c.key() == want {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	rank := 1
	for _, m := range r.miss {
		if m < r.miss[idx] {
			rank++
		}
	}
	return rank, true
}

// Config parameterizes a Prover. The zero value of every field but Net
// selects a sensible default.
type Config struct {
	// Net is the network geometry being diagnosed. Required.
	Net *core.Network
	// MaxFaults is the hypothesis order: 1 (default) diagnoses a single
	// stuck switch exactly; 2 adds best-effort fault-pair hypotheses.
	MaxFaults int
	// Budget caps the number of probes per session. Defaults to
	// 2*LogN + 2 — the two full-sweep probes plus a logarithmic number
	// of adaptive refinements.
	Budget int
	// Seed drives the deterministic probe pool (the random
	// permutations beyond the XOR masks); two provers with equal
	// Config run equal sessions against equal oracles.
	Seed int64
	// PoolExtra is how many seeded random permutation probes top up
	// the XOR mask pool. Defaults to 4*LogN, which empirically
	// separates every single-fault candidate pairwise at n <= 5.
	PoolExtra int
	// PairCap bounds how many pair hypotheses MaxFaults=2 enumerates;
	// pairs are drawn from the best-scoring singles. Defaults to 4096.
	PairCap int
	// TopK bounds Report.Top (rank-1 ties are always included).
	// Defaults to 16.
	TopK int
	// Metrics, when non-nil, receives session accounting.
	Metrics *Metrics
}

// Defaults for Config fields left zero.
const (
	DefaultPairCap = 4096
	DefaultTopK    = 16

	// greedyAt is the survivor-set size below which probe selection
	// switches from the fixed schedule to adaptive greedy splitting.
	greedyAt = 48
	// probeEps is the per-probe noise prior: the likelihood a
	// contradicted candidate is nonetheless the truth.
	probeEps = 1e-3
)

func (c Config) withDefaults() Config {
	if c.MaxFaults <= 0 {
		c.MaxFaults = 1
	}
	if c.Budget <= 0 {
		c.Budget = 2*c.Net.LogN() + 2
	}
	if c.PoolExtra <= 0 {
		c.PoolExtra = 4 * c.Net.LogN()
	}
	if c.PairCap <= 0 {
		c.PairCap = DefaultPairCap
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	return c
}

// Prover runs diagnosis sessions. A Prover is immutable after New and
// safe for concurrent Diagnose calls (each session allocates its own
// scratch).
type Prover struct {
	cfg  Config
	net  *core.Network
	pool []perm.Perm
}

// New builds a prover for cfg.Net with its deterministic probe pool.
func New(cfg Config) (*Prover, error) {
	if cfg.Net == nil {
		return nil, errors.New("diagnose: Config.Net is required")
	}
	if cfg.MaxFaults > 2 {
		return nil, fmt.Errorf("diagnose: MaxFaults %d not supported (max 2)", cfg.MaxFaults)
	}
	cfg = cfg.withDefaults()
	return &Prover{cfg: cfg, net: cfg.Net, pool: buildPool(cfg.Net, cfg.Seed, cfg.PoolExtra)}, nil
}

// Pool returns the prover's probe pool (read-only; callers must not
// mutate the returned permutations).
func (p *Prover) Pool() []perm.Perm { return p.pool }

// session is the mutable state of one Diagnose call.
type session struct {
	p      *Prover
	oracle Oracle
	fr     *core.FaultRouter
	pred   perm.Perm // prediction scratch

	// probes starts as the prover's shared pool and grows by extension:
	// when no unused probe splits the survivors but budget remains, the
	// session appends more seeded random permutations (deterministic
	// continuation) rather than giving up on an unlucky draw.
	probes  []perm.Perm
	extRng  *rand.Rand
	extLeft int

	cands []Candidate
	miss  []int
	surv  []int // indices into cands with miss == 0
	used  []bool
	obs   []Observation
}

// Diagnose runs one probe session against o and returns the report.
// The session is deterministic given the prover's Config and the
// oracle's behaviour.
func (p *Prover) Diagnose(o Oracle) (*Report, error) {
	start := time.Now()
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.sessions.Inc()
	}
	s := &session{
		p:       p,
		oracle:  o,
		fr:      p.net.NewFaultRouter(),
		pred:    make(perm.Perm, p.net.N()),
		probes:  p.pool[:len(p.pool):len(p.pool)],
		extRng:  rand.New(rand.NewSource(p.cfg.Seed + 1)),
		extLeft: 4 * p.cfg.PoolExtra,
		used:    make([]bool, len(p.pool)),
	}
	// Hypothesis order 1: healthy first, then every single fault.
	s.cands = append(s.cands, Candidate{})
	for _, f := range p.net.EnumerateFaults() {
		s.cands = append(s.cands, Candidate{Faults: []core.Fault{f}})
	}
	s.miss = make([]int, len(s.cands))
	s.surv = make([]int, len(s.cands))
	for i := range s.surv {
		s.surv[i] = i
	}

	converged, err := s.run(p.cfg.Budget)
	if err != nil {
		return nil, err
	}
	if p.cfg.MaxFaults >= 2 {
		s.expandPairs()
		// Pairs may have revived ambiguity; spend any remaining budget
		// splitting the enlarged survivor set.
		if len(s.obs) < p.cfg.Budget {
			converged, err = s.run(p.cfg.Budget)
			if err != nil {
				return nil, err
			}
		}
	}
	rep := s.report(converged)
	rep.ElapsedNs = time.Since(start).Nanoseconds()
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.Latency.ObserveSince(start)
	}
	return rep, nil
}

// run executes probes until the budget is spent or no pool probe can
// split the survivors, returning whether the session converged.
func (s *session) run(budget int) (bool, error) {
	for len(s.obs) < budget {
		if len(s.surv) <= 1 {
			return true, nil
		}
		q := s.nextProbe()
		if q < 0 {
			if s.extend() {
				continue
			}
			// No probe in the (fully extended) pool discriminates the
			// survivors: they are observationally equivalent.
			return true, nil
		}
		if err := s.probe(q); err != nil {
			return false, err
		}
	}
	return len(s.surv) <= 1 || (s.nextProbe() < 0 && !s.extend()), nil
}

// extend grows the session's probe pool with another batch of seeded
// random permutations, up to the extension cap. The random stream
// continues deterministically from the session seed, so extended
// sessions remain reproducible.
func (s *session) extend() bool {
	if s.extLeft <= 0 {
		return false
	}
	batch := s.p.cfg.PoolExtra
	if batch > s.extLeft {
		batch = s.extLeft
	}
	s.extLeft -= batch
	n := s.p.net.N()
	for k := 0; k < batch; k++ {
		s.probes = append(s.probes, perm.Random(n, s.extRng))
		s.used = append(s.used, false)
	}
	return true
}

// nextProbe picks the next pool probe: the fixed schedule (the pool is
// ordered sweeps-first) while the survivor set is large, then greedy
// adaptive selection — the unused probe whose predictions split the
// survivors into the most balanced partition. Returns -1 when no
// unused probe discriminates the survivors.
func (s *session) nextProbe() int {
	if len(s.surv) > greedyAt {
		for q := range s.pool() {
			if !s.used[q] {
				return q
			}
		}
		return -1
	}
	best, bestMax, bestClasses := -1, math.MaxInt, 0
	classes := make(map[uint64]int, len(s.surv))
	for q := range s.pool() {
		if s.used[q] {
			continue
		}
		clear(classes)
		for _, ci := range s.surv {
			classes[s.predictHash(ci, s.pool()[q])]++
		}
		if len(classes) < 2 {
			continue // every survivor predicts the same outcome: no information
		}
		maxClass := 0
		for _, n := range classes {
			if n > maxClass {
				maxClass = n
			}
		}
		if maxClass < bestMax || (maxClass == bestMax && len(classes) > bestClasses) {
			best, bestMax, bestClasses = q, maxClass, len(classes)
		}
	}
	return best
}

func (s *session) pool() []perm.Perm { return s.probes }

// probe runs pool probe q through the oracle and eliminates every
// surviving candidate whose prediction the observation contradicts.
func (s *session) probe(q int) error {
	d := s.pool()[q]
	s.used[q] = true
	got, err := s.oracle.Probe(d)
	if err != nil {
		return fmt.Errorf("diagnose: probe %d: %w", len(s.obs), err)
	}
	if len(got) != s.p.net.N() {
		return fmt.Errorf("diagnose: probe %d: oracle returned %d outputs, want %d", len(s.obs), len(got), s.p.net.N())
	}
	s.obs = append(s.obs, Observation{Probe: d, Realized: got.Clone()})
	if m := s.p.cfg.Metrics; m != nil {
		m.probes.Inc()
	}
	kept := s.surv[:0]
	eliminated := int64(0)
	for _, ci := range s.surv {
		s.fr.Realized(d, s.cands[ci].Faults, nil, s.pred)
		if s.pred.Equal(got) {
			kept = append(kept, ci)
		} else {
			s.miss[ci]++
			eliminated++
		}
	}
	s.surv = kept
	if m := s.p.cfg.Metrics; m != nil && eliminated > 0 {
		m.eliminated.Add(eliminated)
	}
	return nil
}

// predictHash hashes candidate ci's predicted realized permutation for
// probe d (FNV-1a over the outputs) — enough to partition survivors
// without materializing each prediction.
func (s *session) predictHash(ci int, d perm.Perm) uint64 {
	s.fr.Realized(d, s.cands[ci].Faults, nil, s.pred)
	h := uint64(14695981039346656037)
	for _, v := range s.pred {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// expandPairs adds fault-pair hypotheses, drawn from the
// best-supported singles, and scores each against every recorded
// observation — no extra probes. Pairs whose members sit on the same
// switch are contradictory and skipped. This is the best-effort k <= 2
// mode: a pair whose second fault no recorded probe exercised ties
// with the bare single.
func (s *session) expandPairs() {
	// Rank single-fault candidates by mismatch count (candidate 0 is
	// the healthy hypothesis).
	singles := make([]int, 0, len(s.cands)-1)
	for i := 1; i < len(s.cands); i++ {
		singles = append(singles, i)
	}
	sort.SliceStable(singles, func(a, b int) bool { return s.miss[singles[a]] < s.miss[singles[b]] })
	// The largest m with m*(m-1)/2 <= PairCap.
	m := int((1 + math.Sqrt(1+8*float64(s.p.cfg.PairCap))) / 2)
	if m > len(singles) {
		m = len(singles)
	}
	for ai := 0; ai < m; ai++ {
		for bi := ai + 1; bi < m; bi++ {
			fa := s.cands[singles[ai]].Faults[0]
			fb := s.cands[singles[bi]].Faults[0]
			if fa.Stage == fb.Stage && fa.Switch == fb.Switch {
				continue
			}
			c := Candidate{Faults: []core.Fault{fa, fb}}
			miss := 0
			for _, ob := range s.obs {
				s.fr.Realized(ob.Probe, c.Faults, nil, s.pred)
				if !s.pred.Equal(ob.Realized) {
					miss++
				}
			}
			s.cands = append(s.cands, c)
			s.miss = append(s.miss, miss)
			if miss == 0 {
				s.surv = append(s.surv, len(s.cands)-1)
			}
		}
	}
}

// report assembles the posterior.
func (s *session) report(converged bool) *Report {
	rep := &Report{
		N:          s.p.net.N(),
		MaxFaults:  s.p.cfg.MaxFaults,
		Probes:     len(s.obs),
		Candidates: len(s.cands),
		Survivors:  len(s.surv),
		Converged:  converged,
		Healthy:    s.miss[0] == 0,
		Obs:        s.obs,
		cands:      s.cands,
		miss:       s.miss,
	}
	rep.Eliminated = rep.Candidates - rep.Survivors

	// Likelihood: eps per contradicted probe, normalized over every
	// candidate.
	weights := make([]float64, len(s.cands))
	total := 0.0
	for i, m := range s.miss {
		weights[i] = math.Pow(probeEps, float64(m))
		total += weights[i]
	}
	order := make([]int, len(s.cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if s.miss[ia] != s.miss[ib] {
			return s.miss[ia] < s.miss[ib]
		}
		// Simpler hypotheses first, then coordinate order.
		return candLess(s.cands[ia], s.cands[ib])
	})
	top := s.p.cfg.TopK
	for outIdx, ci := range order {
		rank := 1
		for _, m := range s.miss {
			if m < s.miss[ci] {
				rank++
			}
		}
		if outIdx >= top && rank > 1 {
			break
		}
		rep.Top = append(rep.Top, Ranked{
			Candidate:  s.cands[ci],
			Score:      weights[ci] / total,
			Rank:       rank,
			Mismatches: s.miss[ci],
		})
	}
	return rep
}

// candLess orders candidates for deterministic reporting.
func candLess(a, b Candidate) bool {
	if len(a.Faults) != len(b.Faults) {
		return len(a.Faults) < len(b.Faults)
	}
	for i := range a.Faults {
		fa, fb := a.Faults[i], b.Faults[i]
		if fa.Stage != fb.Stage {
			return fa.Stage < fb.Stage
		}
		if fa.Switch != fb.Switch {
			return fa.Switch < fb.Switch
		}
		if fa.StuckCrossed != fb.StuckCrossed {
			return !fa.StuckCrossed
		}
	}
	return false
}
