package collective

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/fabric"
	"repro/internal/perm"
)

// Op names a collective operation.
type Op int

const (
	// OpAllToAll is the personalized all-to-all: chunk j of port i
	// lands at port j (as that port's chunk i). N rounds, every one a
	// cyclic shift — Table II's inverse-omega family — so no round
	// pays looping setup.
	OpAllToAll Op = iota
	// OpExchange is the arbitrary all-to-all: each port names a
	// destination per chunk and the compiler decomposes the transfer
	// into at most max-degree matchings (König edge coloring).
	OpExchange
	// OpTranspose moves chunk columns through the matrix-transpose
	// permutation of Table I (rows x cols, row-major ports).
	OpTranspose
	// OpShuffle moves chunk columns through the perfect shuffle of
	// Table I.
	OpShuffle
	// OpBitReversal moves chunk columns through the bit-reversal
	// permutation of Table I (Fig. 4).
	OpBitReversal
	// OpBroadcast copies the root's chunks to every port: one
	// copy-network fan-out round per chunk.
	OpBroadcast
	// OpGather collects one chunk from every port at the root.
	OpGather
	// OpScatter distributes the root's N chunks, one per port.
	OpScatter
	// OpAllGather gives every port a copy of every port's chunk: N
	// copy-network rounds, round j a full fan-out of port j's chunk.
	OpAllGather
	// OpFanOut is pub/sub fan-out: each source names its subscriber
	// set and the compiler packs sources with disjoint subscriber
	// sets into shared copy-network rounds.
	OpFanOut

	numOps = int(OpFanOut) + 1
)

func (o Op) String() string {
	switch o {
	case OpAllToAll:
		return "alltoall"
	case OpExchange:
		return "exchange"
	case OpTranspose:
		return "transpose"
	case OpShuffle:
		return "shuffle"
	case OpBitReversal:
		return "bitreversal"
	case OpBroadcast:
		return "broadcast"
	case OpGather:
		return "gather"
	case OpScatter:
		return "scatter"
	case OpAllGather:
		return "allgather"
	case OpFanOut:
		return "fanout"
	}
	return "unknown"
}

// Move is one chunk relocation within a round: the chunk at
// (SrcPort, SrcChunk) lands at (DstPort, DstChunk). The network
// realizes the port-level motion; the move records which payload cell
// rides it.
type Move struct {
	SrcPort, SrcChunk int
	DstPort, DstChunk int
}

// Round is one network pass of a compiled collective: a full N-port
// permutation plus the payload moves that ride it.
type Round struct {
	// Dest is the full permutation this round presents to the fabric.
	// Nil for copy-network rounds, which present Map instead.
	Dest perm.Perm
	// Map, when non-nil, makes this a copy-network round: Map[out]
	// names the source whose chunk lands at output out (fabric.Idle
	// for outputs the round leaves untouched). Fan-out — one source
	// feeding many outputs — is the point; the executor serves these
	// through Rounder.RouteMulticastRound instead of RouteRound.
	Map []int
	// Class is the compiler's classification of Dest — the predicted
	// routing cost. Self-routable classes pay no looping setup. Map
	// rounds are ClassSelfRoutable by construction: every copy-network
	// phase routes from local tag comparisons.
	Class perm.Class
	// Moves are the payload relocations this round performs.
	Moves []Move
}

// Program is a compiled collective: the round schedule plus the
// payload shape it operates on.
type Program struct {
	Op   Op
	LogN int
	N    int
	// InChunks[p] is how many chunks port p must supply.
	InChunks []int
	// StateChunks[p] is the width of port p's result buffer. The
	// executor initializes state[p][c] = in[p][c] for the cells both
	// shapes cover, then applies the rounds' moves.
	StateChunks []int
	// Rounds is the schedule. The rounds touch pairwise-disjoint
	// cells — every move reads the immutable input and every state
	// cell is written at most once — so the executor runs them
	// concurrently across the fabric's planes.
	Rounds []Round
	// Multicast is true when the schedule contains copy-network (map)
	// rounds, which the executor serves through RouteMulticastRound,
	// relying on the engine's plan cache to keep repeated mappings
	// cheap.
	Multicast bool
	// SelfRoutable counts the rounds whose classification needs no
	// looping setup.
	SelfRoutable int
	// covered is true when the rounds write every state cell exactly
	// once, so the executor can skip initializing state from the
	// input (all-to-all, transpose, scatter, ...).
	covered bool
}

// TotalMoves returns the number of payload chunks the program moves.
func (p *Program) TotalMoves() int {
	total := 0
	for i := range p.Rounds {
		total += len(p.Rounds[i].Moves)
	}
	return total
}

// finish computes the derived classification tally and the coverage
// flag.
func (p *Program) finish() *Program {
	p.SelfRoutable = 0
	for i := range p.Rounds {
		if p.Rounds[i].Class.SelfRoutable() {
			p.SelfRoutable++
		}
	}
	// Programs write each state cell at most once (Validate's
	// invariant), so move count == state size means full coverage.
	cells := 0
	for _, w := range p.StateChunks {
		cells += w
	}
	p.covered = p.TotalMoves() == cells
	return p
}

// uniform returns a length-n slice filled with v.
func uniform(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// newRound classifies dest and wraps it with its moves.
func newRound(dest perm.Perm, moves []Move) Round {
	return Round{Dest: dest, Class: perm.Classify(dest).Class, Moves: moves}
}

// newRoundClass wraps a round whose class is known a priori from the
// pattern itself — every cyclic shift is a Table II inverse-omega
// member — skipping the O(N log N) classifier per round. The claims
// are cross-checked against perm.Classify in the compiler tests.
func newRoundClass(dest perm.Perm, class perm.Class, moves []Move) Round {
	return Round{Dest: dest, Class: class, Moves: moves}
}

// newMapRound wraps a copy-network round. No classifier runs: the
// copy network self-routes by construction — the distribute and
// permute B(n) phases route from destination tags and the omega copy
// ladder from boolean interval splitting — so no map round ever pays
// looping setup.
func newMapRound(m []int, moves []Move) Round {
	return Round{Map: m, Class: perm.ClassSelfRoutable, Moves: moves}
}

// columnRounds builds the k-round schedule shared by the Table I
// collectives: chunk column c rides permutation dest (the same every
// round), port i's chunk landing at port dest[i] in the same column.
func columnRounds(dest perm.Perm, chunks int) []Round {
	class := perm.Classify(dest).Class
	rounds := make([]Round, chunks)
	for c := 0; c < chunks; c++ {
		moves := make([]Move, len(dest))
		for i, d := range dest {
			moves[i] = Move{SrcPort: i, SrcChunk: c, DstPort: d, DstChunk: c}
		}
		rounds[c] = Round{Dest: dest, Class: class, Moves: moves}
	}
	return rounds
}

// CompileAllToAll compiles the personalized all-to-all on N = 2^logN
// ports, each holding N chunks: in[i][j] lands at state[j][i]. The
// schedule is the ring decomposition — round r is the cyclic shift by
// r, moving in[i][(i+r) mod N] to port (i+r) mod N — so all N rounds
// are Table II inverse-omega members and self-route.
func CompileAllToAll(logN int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	p := &Program{
		Op:          OpAllToAll,
		LogN:        logN,
		N:           N,
		InChunks:    uniform(N, N),
		StateChunks: uniform(N, N),
		Rounds:      make([]Round, N),
	}
	for r := 0; r < N; r++ {
		moves := make([]Move, N)
		for i := 0; i < N; i++ {
			d := (i + r) % N
			moves[i] = Move{SrcPort: i, SrcChunk: d, DstPort: d, DstChunk: i}
		}
		p.Rounds[r] = newRoundClass(perm.CyclicShift(logN, r), perm.ClassInverseOmega, moves)
	}
	return p.finish(), nil
}

// CompileTranspose compiles the rows x cols matrix transpose over
// k-chunk payloads: ports are row-major matrix cells, and chunk column
// c of port r*cols+q lands at port q*rows+r. rows*cols must equal N
// and both must be powers of two; the port permutation is then the
// field-exchange BPC member of Table I (Lenfant's alpha), identical in
// every round — one plan serves all k columns.
func CompileTranspose(logN, rows, cols, chunks int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	if rows < 1 || cols < 1 || rows*cols != N {
		return nil, fmt.Errorf("collective: transpose %dx%d does not tile N=%d ports", rows, cols, N)
	}
	if !bits.IsPow2(rows) || !bits.IsPow2(cols) {
		return nil, fmt.Errorf("collective: transpose %dx%d needs power-of-two sides", rows, cols)
	}
	if chunks < 1 {
		return nil, fmt.Errorf("collective: chunks must be >= 1, got %d", chunks)
	}
	dest := make(perm.Perm, N)
	for r := 0; r < rows; r++ {
		for q := 0; q < cols; q++ {
			dest[r*cols+q] = q*rows + r
		}
	}
	p := &Program{
		Op:          OpTranspose,
		LogN:        logN,
		N:           N,
		InChunks:    uniform(N, chunks),
		StateChunks: uniform(N, chunks),
		Rounds:      columnRounds(dest, chunks),
	}
	return p.finish(), nil
}

// CompileShuffle compiles the perfect shuffle (Table I) over k-chunk
// payloads: every chunk column rides the same BPC permutation.
func CompileShuffle(logN, chunks int) (*Program, error) {
	return compileColumns(OpShuffle, logN, chunks, perm.PerfectShuffle)
}

// CompileBitReversal compiles the bit-reversal permutation (Table I,
// Fig. 4) over k-chunk payloads.
func CompileBitReversal(logN, chunks int) (*Program, error) {
	return compileColumns(OpBitReversal, logN, chunks, perm.BitReversal)
}

func compileColumns(op Op, logN, chunks int, gen func(int) perm.Perm) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	if chunks < 1 {
		return nil, fmt.Errorf("collective: chunks must be >= 1, got %d", chunks)
	}
	N := 1 << uint(logN)
	p := &Program{
		Op:          op,
		LogN:        logN,
		N:           N,
		InChunks:    uniform(N, chunks),
		StateChunks: uniform(N, chunks),
		Rounds:      columnRounds(gen(logN), chunks),
	}
	return p.finish(), nil
}

// CompileBroadcast compiles a copy-broadcast of the root's k chunks
// through the copy network: chunk c rides one full-fan-out round
// (Map[out] = root for every out), so the schedule is k data-parallel
// rounds. Every round reads only the immutable input, so the rounds
// pipeline across planes, and the k identical mappings share one
// cached plan per plane.
func CompileBroadcast(logN, root, chunks int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	if root < 0 || root >= N {
		return nil, fmt.Errorf("collective: root %d out of range [0,%d)", root, N)
	}
	if chunks < 1 {
		return nil, fmt.Errorf("collective: chunks must be >= 1, got %d", chunks)
	}
	in := uniform(N, 0)
	in[root] = chunks
	p := &Program{
		Op:          OpBroadcast,
		LogN:        logN,
		N:           N,
		InChunks:    in,
		StateChunks: uniform(N, chunks),
		Rounds:      make([]Round, chunks),
		Multicast:   true,
	}
	for c := 0; c < chunks; c++ {
		moves := make([]Move, N)
		for o := 0; o < N; o++ {
			moves[o] = Move{SrcPort: root, SrcChunk: c, DstPort: o, DstChunk: c}
		}
		p.Rounds[c] = newMapRound(uniform(N, root), moves)
	}
	return p.finish(), nil
}

// CompileGather compiles the collection of one chunk per port at the
// root: in[s][0] lands at state[root][s]. The root can absorb only one
// chunk per pass, so the schedule is N rounds — the root's own chunk
// rides the identity and every other source s rides the cyclic shift
// that carries s to root — all self-routable.
func CompileGather(logN, root int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	if root < 0 || root >= N {
		return nil, fmt.Errorf("collective: root %d out of range [0,%d)", root, N)
	}
	state := uniform(N, 1)
	state[root] = N
	p := &Program{
		Op:          OpGather,
		LogN:        logN,
		N:           N,
		InChunks:    uniform(N, 1),
		StateChunks: state,
		Rounds:      make([]Round, 0, N),
	}
	p.Rounds = append(p.Rounds, newRoundClass(perm.Identity(N), perm.ClassInverseOmega,
		[]Move{{SrcPort: root, SrcChunk: 0, DstPort: root, DstChunk: root}}))
	for s := 0; s < N; s++ {
		if s == root {
			continue
		}
		shift := ((root-s)%N + N) % N
		p.Rounds = append(p.Rounds, newRoundClass(perm.CyclicShift(logN, shift), perm.ClassInverseOmega,
			[]Move{{SrcPort: s, SrcChunk: 0, DstPort: root, DstChunk: s}}))
	}
	return p.finish(), nil
}

// CompileScatter compiles the distribution of the root's N chunks, one
// per port: in[root][j] lands at state[j][0]. Mirror of gather: N
// rounds, chunk j riding the cyclic shift that carries root to j.
func CompileScatter(logN, root int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	if root < 0 || root >= N {
		return nil, fmt.Errorf("collective: root %d out of range [0,%d)", root, N)
	}
	in := uniform(N, 0)
	in[root] = N
	p := &Program{
		Op:          OpScatter,
		LogN:        logN,
		N:           N,
		InChunks:    in,
		StateChunks: uniform(N, 1),
		Rounds:      make([]Round, 0, N),
	}
	p.Rounds = append(p.Rounds, newRoundClass(perm.Identity(N), perm.ClassInverseOmega,
		[]Move{{SrcPort: root, SrcChunk: root, DstPort: root, DstChunk: 0}}))
	for j := 0; j < N; j++ {
		if j == root {
			continue
		}
		shift := ((j-root)%N + N) % N
		p.Rounds = append(p.Rounds, newRoundClass(perm.CyclicShift(logN, shift), perm.ClassInverseOmega,
			[]Move{{SrcPort: root, SrcChunk: j, DstPort: j, DstChunk: 0}}))
	}
	return p.finish(), nil
}

// CompileAllGather compiles the all-gather: every port contributes one
// chunk and ends holding all N, in port order — state[p][j] = in[j][0].
// One copy-network round per contributor: round j broadcasts port j's
// chunk to all N ports at slot j. On the permutation path the same
// data motion costs N gather rounds plus a broadcast per slot; here it
// is N data-parallel fan-out rounds that read only the immutable
// input, so they pipeline across the fabric's planes.
func CompileAllGather(logN int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	p := &Program{
		Op:          OpAllGather,
		LogN:        logN,
		N:           N,
		InChunks:    uniform(N, 1),
		StateChunks: uniform(N, N),
		Rounds:      make([]Round, N),
		Multicast:   true,
	}
	for j := 0; j < N; j++ {
		moves := make([]Move, N)
		for o := 0; o < N; o++ {
			moves[o] = Move{SrcPort: j, SrcChunk: 0, DstPort: o, DstChunk: j}
		}
		p.Rounds[j] = newMapRound(uniform(N, j), moves)
	}
	return p.finish(), nil
}

// CompileFanOut compiles a pub/sub fan-out: dests[s] lists the
// subscriber ports of source s's single chunk (an empty list means s
// publishes nothing). Subscriber sets may overlap arbitrarily; the
// compiler greedily packs sources with pairwise-disjoint subscriber
// sets into shared copy-network rounds (first-fit in ascending source
// order), so independent publications share passes and the round count
// is bounded by the number of publishers, typically far fewer. Each
// subscriber p receives its publishers' chunks in ascending source
// order: the chunk from source s lands at state[p][rank of s among
// p's publishers].
func CompileFanOut(logN int, dests [][]int) (*Program, error) {
	if logN < 1 {
		return nil, fmt.Errorf("collective: logN must be >= 1, got %d", logN)
	}
	N := 1 << uint(logN)
	if len(dests) != N {
		return nil, fmt.Errorf("collective: fan-out spec for %d ports, want N=%d", len(dests), N)
	}
	in := make([]int, N)
	indeg := make([]int, N)
	slot := make(map[[2]int]int) // (src, dst) -> landing chunk at dst
	for s, row := range dests {
		if len(row) > 0 {
			in[s] = 1
		}
		seen := make(map[int]bool, len(row))
		for _, d := range row {
			if d < 0 || d >= N {
				return nil, fmt.Errorf("collective: source %d subscriber %d out of range [0,%d)", s, d, N)
			}
			if seen[d] {
				return nil, fmt.Errorf("collective: source %d lists subscriber %d twice", s, d)
			}
			seen[d] = true
			slot[[2]int{s, d}] = indeg[d]
			indeg[d]++
		}
	}
	p := &Program{
		Op:          OpFanOut,
		LogN:        logN,
		N:           N,
		InChunks:    in,
		StateChunks: indeg,
		Multicast:   true,
	}
	for s := 0; s < N; s++ {
		row := dests[s]
		if len(row) == 0 {
			continue
		}
		fit := -1
		for r := range p.Rounds {
			ok := true
			for _, d := range row {
				if p.Rounds[r].Map[d] != fabric.Idle {
					ok = false
					break
				}
			}
			if ok {
				fit = r
				break
			}
		}
		if fit == -1 {
			fit = len(p.Rounds)
			p.Rounds = append(p.Rounds, newMapRound(uniform(N, fabric.Idle), nil))
		}
		r := &p.Rounds[fit]
		for _, d := range row {
			r.Map[d] = s
			r.Moves = append(r.Moves, Move{SrcPort: s, SrcChunk: 0, DstPort: d, DstChunk: slot[[2]int{s, d}]})
		}
	}
	return p.finish(), nil
}

// Validate checks the compiled program's structural invariants: every
// move's ports agree with its round's permutation or mapping, every
// read is in shape, and no state cell is written twice. The compilers are tested to emit only
// valid programs; Validate exists so tests (and the fuzzer) can prove
// it.
func (p *Program) Validate() error {
	if len(p.InChunks) != p.N || len(p.StateChunks) != p.N {
		return fmt.Errorf("collective: shape arrays sized %d/%d, want N=%d",
			len(p.InChunks), len(p.StateChunks), p.N)
	}
	written := make(map[[2]int]bool)
	for ri := range p.Rounds {
		r := &p.Rounds[ri]
		if r.Map != nil {
			if r.Dest != nil {
				return fmt.Errorf("collective: round %d has both a permutation and a map", ri)
			}
			if !p.Multicast {
				return fmt.Errorf("collective: round %d is a map round but the program is not marked multicast", ri)
			}
			if len(r.Map) != p.N {
				return fmt.Errorf("collective: round %d map sized %d, want %d", ri, len(r.Map), p.N)
			}
			assigned := 0
			for out, src := range r.Map {
				if src == fabric.Idle {
					continue
				}
				if src < 0 || src >= p.N {
					return fmt.Errorf("collective: round %d maps output %d to source %d, out of range [0,%d)",
						ri, out, src, p.N)
				}
				assigned++
			}
			if assigned == 0 {
				return fmt.Errorf("collective: round %d map assigns no outputs", ri)
			}
		} else {
			if len(r.Dest) != p.N {
				return fmt.Errorf("collective: round %d permutation sized %d, want %d", ri, len(r.Dest), p.N)
			}
			if err := r.Dest.Validate(); err != nil {
				return fmt.Errorf("collective: round %d: %w", ri, err)
			}
		}
		for _, m := range r.Moves {
			if m.SrcPort < 0 || m.SrcPort >= p.N || m.DstPort < 0 || m.DstPort >= p.N {
				return fmt.Errorf("collective: round %d move ports (%d->%d) out of range", ri, m.SrcPort, m.DstPort)
			}
			if r.Map != nil {
				if r.Map[m.DstPort] != m.SrcPort {
					return fmt.Errorf("collective: round %d moves %d->%d but maps output %d to source %d",
						ri, m.SrcPort, m.DstPort, m.DstPort, r.Map[m.DstPort])
				}
			} else if r.Dest[m.SrcPort] != m.DstPort {
				return fmt.Errorf("collective: round %d moves %d->%d but routes %d->%d",
					ri, m.SrcPort, m.DstPort, m.SrcPort, r.Dest[m.SrcPort])
			}
			if m.SrcChunk < 0 || m.SrcChunk >= p.InChunks[m.SrcPort] {
				return fmt.Errorf("collective: round %d reads chunk %d of port %d (width %d)",
					ri, m.SrcChunk, m.SrcPort, p.InChunks[m.SrcPort])
			}
			if m.DstChunk < 0 || m.DstChunk >= p.StateChunks[m.DstPort] {
				return fmt.Errorf("collective: round %d writes chunk %d of port %d (width %d)",
					ri, m.DstChunk, m.DstPort, p.StateChunks[m.DstPort])
			}
			cell := [2]int{m.DstPort, m.DstChunk}
			if written[cell] {
				return fmt.Errorf("collective: program writes cell (%d,%d) twice",
					m.DstPort, m.DstChunk)
			}
			written[cell] = true
		}
	}
	return nil
}
