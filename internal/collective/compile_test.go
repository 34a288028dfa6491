package collective

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// samePerm reports element-wise equality of two permutations.
func samePerm(a, b perm.Perm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompileAllToAllProgram pins the schedule shape: N rounds, every
// one a cyclic shift classified self-routable, N^2 moves total.
func TestCompileAllToAllProgram(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 4} {
		n := 1 << uint(logN)
		p, err := CompileAllToAll(logN)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(p.Rounds) != n {
			t.Fatalf("logN=%d: %d rounds, want %d", logN, len(p.Rounds), n)
		}
		if p.SelfRoutable != n {
			t.Fatalf("logN=%d: %d/%d rounds self-routable, want all (Table II)", logN, p.SelfRoutable, n)
		}
		if p.TotalMoves() != n*n {
			t.Fatalf("logN=%d: %d moves, want N^2=%d", logN, p.TotalMoves(), n*n)
		}
		for r := range p.Rounds {
			want := perm.CyclicShift(logN, r)
			if !samePerm(p.Rounds[r].Dest, want) {
				t.Fatalf("round %d is not the cyclic shift by %d", r, r)
			}
		}
	}
}

// TestCompileColumnPrograms pins the Table I collectives: k identical
// self-routable rounds (one plan serves every column).
func TestCompileColumnPrograms(t *testing.T) {
	const logN, chunks = 4, 3
	cases := []struct {
		name    string
		compile func() (*Program, error)
	}{
		{"transpose", func() (*Program, error) { return CompileTranspose(logN, 4, 4, chunks) }},
		{"wide-transpose", func() (*Program, error) { return CompileTranspose(logN, 2, 8, chunks) }},
		{"shuffle", func() (*Program, error) { return CompileShuffle(logN, chunks) }},
		{"bitreversal", func() (*Program, error) { return CompileBitReversal(logN, chunks) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.compile()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(p.Rounds) != chunks || p.SelfRoutable != chunks {
				t.Fatalf("%d rounds, %d self-routable, want %d/%d", len(p.Rounds), p.SelfRoutable, chunks, chunks)
			}
			for r := 1; r < chunks; r++ {
				if !samePerm(p.Rounds[r].Dest, p.Rounds[0].Dest) {
					t.Fatalf("round %d permutation differs from round 0", r)
				}
			}
			if p.Rounds[0].Class != perm.ClassBPC {
				t.Fatalf("Table I member classified %v, want BPC", p.Rounds[0].Class)
			}
		})
	}
}

// TestCompileBroadcastProgram pins the copy-network schedule: one
// data-parallel full-fan-out map round per chunk, every output mapped
// to the root.
func TestCompileBroadcastProgram(t *testing.T) {
	const logN, n, root, chunks = 3, 8, 5, 2
	p, err := CompileBroadcast(logN, root, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Multicast || len(p.Rounds) != chunks || p.SelfRoutable != chunks {
		t.Fatalf("multicast=%v rounds=%d selfRoutable=%d, want true/%d/%d",
			p.Multicast, len(p.Rounds), p.SelfRoutable, chunks, chunks)
	}
	for r := range p.Rounds {
		rd := &p.Rounds[r]
		if rd.Map == nil || rd.Dest != nil {
			t.Fatalf("round %d is not a map round", r)
		}
		for out, src := range rd.Map {
			if src != root {
				t.Fatalf("round %d maps output %d to %d, want root %d", r, out, src, root)
			}
		}
		if len(rd.Moves) != n {
			t.Fatalf("round %d moves %d chunks, want one per port", r, len(rd.Moves))
		}
	}
}

// TestCompileAllGatherProgram pins the all-gather schedule: N
// data-parallel map rounds, round j a full fan-out of port j landing
// in column j, covering every state cell exactly once.
func TestCompileAllGatherProgram(t *testing.T) {
	const logN, n = 3, 8
	p, err := CompileAllGather(logN)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Multicast || len(p.Rounds) != n || p.SelfRoutable != n {
		t.Fatalf("multicast=%v rounds=%d selfRoutable=%d, want true/%d/%d",
			p.Multicast, len(p.Rounds), p.SelfRoutable, n, n)
	}
	if p.TotalMoves() != n*n {
		t.Fatalf("%d moves, want N^2=%d", p.TotalMoves(), n*n)
	}
	for j := range p.Rounds {
		for out, src := range p.Rounds[j].Map {
			if src != j {
				t.Fatalf("round %d maps output %d to %d, want %d", j, out, src, j)
			}
		}
	}
	out := simulate(p, fill(n, 1))
	for pt := 0; pt < n; pt++ {
		for j := 0; j < n; j++ {
			if want := j * 1000; out[pt][j] != want {
				t.Fatalf("out[%d][%d] = %d, want %d", pt, j, out[pt][j], want)
			}
		}
	}
}

// TestCompileFanOutProgram checks the pub/sub packer: overlapping
// subscriber sets are split across rounds, disjoint ones share a
// round, and each subscriber's slots are keyed by ascending source.
func TestCompileFanOutProgram(t *testing.T) {
	const logN, n = 3, 8
	// Sources 0 and 1 overlap on port 4; sources 2 and 3 are disjoint
	// from each other and from source 0.
	dests := [][]int{
		{4, 5, 6},
		{4, 7},
		{0, 1},
		{2, 3},
		nil, nil, nil, nil,
	}
	p, err := CompileFanOut(logN, dests)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Multicast {
		t.Fatal("fan-out program not marked multicast")
	}
	// First-fit: sources 0, 2, 3 pack into round 0; source 1 conflicts
	// on port 4 and opens round 1.
	if len(p.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2 (disjoint sets share a pass)", len(p.Rounds))
	}
	if p.TotalMoves() != 9 {
		t.Fatalf("%d moves, want one per subscription edge (9)", p.TotalMoves())
	}
	in := [][]int{{100}, {200}, {300}, {400}, {}, {}, {}, {}}
	out := simulate(p, in)
	want := [][]int{{300}, {300}, {400}, {400}, {100, 200}, {100}, {100}, {200}}
	for pt := range want {
		if len(out[pt]) != len(want[pt]) {
			t.Fatalf("port %d received %v, want %v", pt, out[pt], want[pt])
		}
		for c := range want[pt] {
			if out[pt][c] != want[pt][c] {
				t.Fatalf("port %d received %v, want %v", pt, out[pt], want[pt])
			}
		}
	}
}

// TestCompileFanOutErrors covers the subscription-spec rejects.
func TestCompileFanOutErrors(t *testing.T) {
	if _, err := CompileFanOut(2, [][]int{{0}, {1}}); err == nil {
		t.Fatal("wrong port count must be rejected")
	}
	if _, err := CompileFanOut(1, [][]int{{0, 0}, nil}); err == nil {
		t.Fatal("duplicate subscriber must be rejected")
	}
	if _, err := CompileFanOut(1, [][]int{{2}, nil}); err == nil {
		t.Fatal("out-of-range subscriber must be rejected")
	}
	p, err := CompileFanOut(1, [][]int{nil, nil})
	if err != nil || len(p.Rounds) != 0 {
		t.Fatalf("empty fan-out: %v rounds=%d, want trivial program", err, len(p.Rounds))
	}
}

// TestCompileGatherScatterPrograms pins both: N self-routable rounds,
// one real transfer each.
func TestCompileGatherScatterPrograms(t *testing.T) {
	const logN, n, root = 3, 8, 3
	for _, tc := range []struct {
		name    string
		compile func() (*Program, error)
	}{
		{"gather", func() (*Program, error) { return CompileGather(logN, root) }},
		{"scatter", func() (*Program, error) { return CompileScatter(logN, root) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.compile()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(p.Rounds) != n || p.SelfRoutable != n {
				t.Fatalf("%d rounds %d self-routable, want %d/%d", len(p.Rounds), p.SelfRoutable, n, n)
			}
			if p.TotalMoves() != n {
				t.Fatalf("%d moves, want one per port", p.TotalMoves())
			}
		})
	}
}

// simulate applies a program's moves to an integer payload without a
// fabric, mirroring the executor's buffer discipline.
func simulate(p *Program, in [][]int) [][]int {
	state := make([][]int, p.N)
	for i := range state {
		state[i] = make([]int, p.StateChunks[i])
		copy(state[i], in[i])
	}
	for ri := range p.Rounds {
		for _, m := range p.Rounds[ri].Moves {
			state[m.DstPort][m.DstChunk] = in[m.SrcPort][m.SrcChunk]
		}
	}
	return state
}

// TestCompileExchangeRandom fuzzes random exchange specs: the program
// must validate, use at most max-degree rounds, and deliver every
// chunk to its destination's source-keyed slot.
func TestCompileExchangeRandom(t *testing.T) {
	const logN, n = 4, 16
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		dests := make([][]int, n)
		in := make([][]int, n)
		outdeg := make([]int, n)
		indeg := make([]int, n)
		for p := range dests {
			k := rng.Intn(5)
			seen := map[int]bool{}
			for c := 0; c < k; c++ {
				d := rng.Intn(n + 2) // n+1 values; > n-1 means Keep
				if d >= n || seen[d] {
					d = Keep
				} else {
					seen[d] = true
					outdeg[p]++
					indeg[d]++
				}
				dests[p] = append(dests[p], d)
				in[p] = append(in[p], p*1000+c)
			}
		}
		maxDeg := 0
		for p := 0; p < n; p++ {
			if outdeg[p] > maxDeg {
				maxDeg = outdeg[p]
			}
			if indeg[p] > maxDeg {
				maxDeg = indeg[p]
			}
		}

		prog, err := CompileExchange(logN, dests)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(prog.Rounds) != maxDeg {
			t.Fatalf("trial %d: %d rounds, want max degree %d (König)", trial, len(prog.Rounds), maxDeg)
		}
		out := simulate(prog, in)
		for p := range dests {
			for c, d := range dests[p] {
				if d == Keep {
					continue
				}
				if out[d][p] != in[p][c] {
					t.Fatalf("trial %d: out[%d][%d] = %d, want chunk %d of port %d", trial, d, p, out[d][p], c, p)
				}
			}
		}
	}
}

// TestCompileExchangeErrors covers the spec rejects.
func TestCompileExchangeErrors(t *testing.T) {
	if _, err := CompileExchange(2, [][]int{{0}, {1}}); err == nil {
		t.Fatal("wrong port count must be rejected")
	}
	if _, err := CompileExchange(1, [][]int{{0, 0}, {}}); err == nil {
		t.Fatal("duplicate (src,dst) must be rejected")
	}
	if _, err := CompileExchange(1, [][]int{{2}, {}}); err == nil {
		t.Fatal("out-of-range destination must be rejected")
	}
	if _, err := CompileExchange(1, [][]int{{-7}, {}}); err == nil {
		t.Fatal("negative non-Keep destination must be rejected")
	}
	p, err := CompileExchange(1, [][]int{{}, {}})
	if err != nil || len(p.Rounds) != 0 {
		t.Fatalf("empty exchange: %v rounds=%d, want trivial program", err, len(p.Rounds))
	}
}

// TestCompileErrors covers the shared compiler rejects.
func TestCompileErrors(t *testing.T) {
	if _, err := CompileAllToAll(0); err == nil {
		t.Fatal("logN=0 must be rejected")
	}
	if _, err := CompileTranspose(3, 2, 2, 1); err == nil {
		t.Fatal("rows*cols != N must be rejected")
	}
	if _, err := CompileShuffle(3, 0); err == nil {
		t.Fatal("zero chunks must be rejected")
	}
	if _, err := CompileBroadcast(3, 8, 1); err == nil {
		t.Fatal("root out of range must be rejected")
	}
	if _, err := CompileGather(3, -1); err == nil {
		t.Fatal("negative gather root must be rejected")
	}
}

// TestCompiledRoundClassesHonest audits the classes the fast compilers
// assign a priori (via newRoundClass, skipping perm.Classify per
// round): every claimed class must satisfy its own predicate, and the
// claimed self-routability must agree with the full classifier. The
// claimed class may differ from Classify's precedence-minimal pick
// (e.g. the identity is both BPC and inverse-omega), so the test
// checks truth, not equality.
func TestCompiledRoundClassesHonest(t *testing.T) {
	const logN = 4
	must := func(p *Program, err error) *Program {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	progs := []*Program{
		must(CompileAllToAll(logN)),
		must(CompileTranspose(logN, 4, 4, 2)),
		must(CompileShuffle(logN, 3)),
		must(CompileBitReversal(logN, 1)),
		must(CompileBroadcast(logN, 3, 2)),
		must(CompileGather(logN, 5)),
		must(CompileScatter(logN, 5)),
		must(CompileAllGather(logN)),
	}
	for _, p := range progs {
		for i := range p.Rounds {
			r := &p.Rounds[i]
			if r.Map != nil {
				// Map rounds claim self-routable by construction; the
				// honest check is that the mapping classifier agrees the
				// map is well-formed (multicast or degenerate-injective),
				// never invalid.
				if !r.Class.SelfRoutable() {
					t.Errorf("%s round %d: map round claims %v, want self-routable", p.Op, i, r.Class)
				}
				if cls := perm.ClassifyMapping(r.Map); cls.Class == perm.MappingInvalid {
					t.Errorf("%s round %d: map classified invalid", p.Op, i)
				}
				continue
			}
			switch r.Class {
			case perm.ClassBPC:
				if _, ok := perm.RecognizeBPC(r.Dest); !ok {
					t.Errorf("%s round %d: claimed BPC but RecognizeBPC rejects %v", p.Op, i, r.Dest)
				}
			case perm.ClassInverseOmega:
				if !perm.IsInverseOmega(r.Dest) {
					t.Errorf("%s round %d: claimed inverse-omega but IsInverseOmega rejects %v", p.Op, i, r.Dest)
				}
			}
			if got := perm.Classify(r.Dest).Class.SelfRoutable(); got != r.Class.SelfRoutable() {
				t.Errorf("%s round %d: claimed self-routable=%v, classifier says %v for %v",
					p.Op, i, r.Class.SelfRoutable(), got, r.Dest)
			}
		}
	}
}
