package main

import (
	"math/rand"
	"strconv"

	"repro/internal/perm"
)

// workload is one seeded traffic mix: the benesd flags it runs against
// and the generator of its per-connection request streams. The server
// only ever sees the generated requests.
type workload struct {
	name string
	logN int
	// planes is the fabric's plane count; every workload runs benesd's
	// default of two, and says so explicitly.
	planes  int
	journal bool
	// inprocOps is the fixed op count of one in-process pass, split
	// evenly across the connections' streams.
	inprocOps int
}

// conns is the closed loop's connection count: callers of /route and
// /collective each wait for their reply, and the load process runs on
// two cores.
const conns = 2

var workloads = []*workload{
	{
		// Every /route is a plan-cache hit over a 64-permutation working
		// set: the HTTP/JSON edge and the engine's apply path do the work.
		name:      "route-warm",
		logN:      10,
		planes:    2,
		inprocOps: 30000,
	},
	{
		// Every /route is a never-seen permutation, 3/4 looping-only and
		// 1/4 F(n): setup, looping fallback and cache eviction do the work.
		name:      "route-cold",
		logN:      10,
		planes:    2,
		inprocOps: 1500,
	},
	{
		// 256-packet /send batches with uniform (src,dst): the VOQ,
		// matching, frame setup, plane and delivery path does the work.
		name:      "send-uniform",
		logN:      8,
		planes:    2,
		inprocOps: 1500,
	},
	{
		// /collective alltoall of a 64x64 matrix: whole self-routed rounds
		// on the same planes, bypassing VOQs, matching and looping.
		name:      "alltoall",
		logN:      6,
		planes:    2,
		inprocOps: 2000,
	},
	{
		// Interleaved route/send/multicast/broadcast with the journal on:
		// the only mix that appends the journal on every op and reaches
		// the copy network.
		name:      "mixed-journal",
		logN:      8,
		planes:    2,
		journal:   true,
		inprocOps: 6000,
	},
}

// flags are the benesd flags the workload runs with, after -addr.
func (w *workload) flags() []string {
	f := []string{"-n", strconv.Itoa(w.logN), "-planes", strconv.Itoa(w.planes)}
	if w.journal {
		f = append(f, "-journal")
	}
	return f
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type opKind uint8

const (
	kindRoute opKind = iota
	kindSend
	kindMulticast
	kindAllToAll
	kindBroadcast
)

func (k opKind) String() string {
	return [...]string{"route", "send", "multicast", "alltoall", "broadcast"}[k]
}

func (k opKind) path() string {
	switch k {
	case kindRoute:
		return "/route"
	case kindSend:
		return "/send"
	case kindMulticast:
		return "/multicast"
	}
	return "/collective"
}

// op is one generated request together with the answer a correct
// server gives to it.
type op struct {
	kind opKind

	// Route: dest is routed with the identity payload, so the reply's
	// data must be inv (inv[dest[i]] = i). Its kind is "self-routed"
	// exactly when selfRoutes, and cache_hit must equal hit.
	dest       perm.Perm
	inv        []int
	selfRoutes bool
	hit        bool

	// Send: packet k travels pkts[2k] -> pkts[2k+1].
	pkts []int

	// Multicast: the output-major mapping and its classification.
	mapping []int
	mcls    perm.MappingClassification

	// Collectives: the input matrix and the result it must produce.
	root int
	data [][]int
	want [][]int

	// body caches the encoded request of ops that are sent repeatedly.
	body []byte
}

// values is how many payload values a correct answer delivers to their
// output ports: N per route and broadcast, one per packet, one per
// assigned multicast output, N² per alltoall.
func (o *op) values() int {
	switch o.kind {
	case kindRoute:
		return len(o.dest)
	case kindSend:
		return len(o.pkts) / 2
	case kindMulticast:
		return o.mcls.Assigned
	case kindAllToAll:
		return len(o.data) * len(o.data)
	}
	return len(o.data)
}

// shared holds a workload's seed-derived inputs that both connections
// draw from: the /route working set, the multicast mapping pool and the
// alltoall matrix pool.
type shared struct {
	warm     []*op
	mappings []*op
	matrices []*op
}

func newShared(w *workload, seed int64) *shared {
	rng := rand.New(rand.NewSource(mix(seed, 1000, w)))
	s := &shared{}
	switch w.name {
	case "route-warm":
		s.warm = warmSet(w.logN, 32, rng)
	case "mixed-journal":
		s.warm = warmSet(w.logN, 16, rng)
		for i := 0; i < 16; i++ {
			s.mappings = append(s.mappings, multicastOp(w.logN, rng))
		}
	case "alltoall":
		for i := 0; i < 16; i++ {
			s.matrices = append(s.matrices, allToAllOp(w.logN, rng))
		}
	}
	return s
}

// warmSet returns half self-routable permutations from the paper's
// named families (Table I BPC members, the Section II inverse-omega
// families, the Theorem 4 matrix mappings, then seeded RandomF draws)
// and half uniformly random looping-only ones, each classified by
// perm.Classify. Every op expects a cache miss; callers flip hit once
// the set has been routed.
func warmSet(n, half int, rng *rand.Rand) []*op {
	N := 1 << uint(n)
	named := []perm.Perm{perm.BitReversal(n), perm.VectorReversal(n), perm.PerfectShuffle(n), perm.Unshuffle(n)}
	if n%2 == 0 {
		named = append(named, perm.MatrixTranspose(n), perm.ShuffledRowMajor(n), perm.BitShuffle(n),
			perm.RowRotation(n), perm.ColumnRotation(n), perm.RowXor(n), perm.RowBitReversal(n))
	}
	odd := func() int { return 2*rng.Intn(N/2) + 1 }
	seeded := []func() perm.Perm{
		func() perm.Perm { return perm.CyclicShift(n, 1+rng.Intn(N-1)) },
		func() perm.Perm { return perm.POrdering(n, odd()) },
		func() perm.Perm { return perm.InversePOrdering(n, odd()) },
		func() perm.Perm { return perm.POrderingShift(n, odd(), rng.Intn(N)) },
		func() perm.Perm { return perm.SegmentCyclicShift(n, 1+rng.Intn(n), 1+rng.Intn(N-1)) },
		func() perm.Perm { return perm.ConditionalExchange(n, 1+rng.Intn(n-1)) },
		func() perm.Perm { return perm.RandomBPC(n, rng).Perm() },
		func() perm.Perm { return perm.RandomF(n, rng) },
	}
	seen := map[string]bool{}
	var out []*op
	add := func(p perm.Perm, selfRoutes bool) {
		key := p.String()
		if seen[key] || perm.Classify(p).Class.SelfRoutable() != selfRoutes {
			return
		}
		seen[key] = true
		o := routeOp(p, selfRoutes, false)
		o.body = encode(o)
		out = append(out, o)
	}
	for _, p := range named {
		if len(out) < half {
			add(p, true)
		}
	}
	for i := 0; len(out) < half; i++ {
		add(seeded[i%len(seeded)](), true)
	}
	for len(out) < 2*half {
		add(perm.Random(N, rng), false)
	}
	return out
}

func routeOp(dest perm.Perm, selfRoutes, hit bool) *op {
	inv := make([]int, len(dest))
	for i, d := range dest {
		inv[d] = i
	}
	return &op{kind: kindRoute, dest: dest, inv: inv, selfRoutes: selfRoutes, hit: hit}
}

// freshRouteOp is the never-seen /route request: every fourth a RandomF
// draw that self-routes, the rest uniformly random permutations, which
// at N >= 256 lie outside F(n) with overwhelming probability.
func freshRouteOp(n, i int, rng *rand.Rand) *op {
	if i%4 == 3 {
		return routeOp(perm.RandomF(n, rng), true, false)
	}
	return routeOp(perm.Random(1<<uint(n), rng), false, false)
}

func sendOp(n, packets int, rng *rand.Rand) *op {
	N := 1 << uint(n)
	pkts := make([]int, 2*packets)
	for i := range pkts {
		pkts[i] = rng.Intn(N)
	}
	return &op{kind: kindSend, pkts: pkts}
}

// multicastOp draws a fan-out mapping: 32 sources feed three quarters
// of the outputs, the rest stay idle.
func multicastOp(n int, rng *rand.Rand) *op {
	N := 1 << uint(n)
	srcs := rng.Perm(N)[:32]
	m := make([]int, N)
	for out := range m {
		m[out] = -1
		if rng.Intn(4) != 0 {
			m[out] = srcs[rng.Intn(len(srcs))]
		}
	}
	o := &op{kind: kindMulticast, mapping: m, mcls: perm.ClassifyMapping(m)}
	o.body = encode(o)
	return o
}

func allToAllOp(n int, rng *rand.Rand) *op {
	N := 1 << uint(n)
	data, want := make([][]int, N), make([][]int, N)
	for i := range data {
		data[i], want[i] = make([]int, N), make([]int, N)
	}
	for i := range data {
		for j := range data[i] {
			data[i][j] = rng.Intn(1 << 16)
			want[j][i] = data[i][j]
		}
	}
	o := &op{kind: kindAllToAll, data: data, want: want}
	o.body = encode(o)
	return o
}

// broadcastOp is a one-chunk copy-network broadcast from a random root.
func broadcastOp(n int, rng *rand.Rand) *op {
	N := 1 << uint(n)
	root, v := rng.Intn(N), rng.Intn(1<<16)
	data, want := make([][]int, N), make([][]int, N)
	for i := range data {
		data[i] = []int{}
		want[i] = []int{v}
	}
	data[root] = []int{v}
	return &op{kind: kindBroadcast, root: root, data: data, want: want}
}

// mixedBlock is mixed-journal's op proportions per 20 ops: 40% warm
// routes, 10% fresh routes, 25% sends, 15% multicast rounds and 10%
// broadcasts. Each block is shuffled, so any prefix of whole blocks
// hits the proportions exactly.
var mixedBlock = [...]struct {
	kind  opKind
	fresh bool
	count int
}{
	{kindRoute, false, 8},
	{kindRoute, true, 2},
	{kindSend, false, 5},
	{kindMulticast, false, 3},
	{kindBroadcast, false, 2},
}

// mixSlot is one entry of a shuffled mixed-journal block.
type mixSlot struct {
	kind  opKind
	fresh bool
}

// stream is one connection's deterministic request sequence: the same
// workload, seed and stream id always yield the same ops.
type stream struct {
	w     *workload
	set   *shared
	rng   *rand.Rand
	fresh int       // fresh routes drawn so far
	block []mixSlot // rest of the current mixed-journal block
}

// Stream ids: 0..conns-1 are the closed-loop connections; setupStream
// supplies the op that completes each server start.
const setupStream = conns

func newStream(w *workload, set *shared, seed int64, id int) *stream {
	return &stream{w: w, set: set, rng: rand.New(rand.NewSource(mix(seed, id, w)))}
}

// mix derives an independent rand seed for one (seed, stream,
// workload) triple with the SplitMix64 finalizer.
func mix(seed int64, id int, w *workload) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id+1)*0xbf58476d1ce4e5b9
	for _, c := range w.name {
		x = x*31 + uint64(c)
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

func (s *stream) freshRoute() *op {
	o := freshRouteOp(s.w.logN, s.fresh, s.rng)
	s.fresh++
	return o
}

func (s *stream) warmRoute() *op {
	o := *s.set.warm[s.rng.Intn(len(s.set.warm))]
	o.hit = true
	return &o
}

func (s *stream) next() *op {
	n := s.w.logN
	switch s.w.name {
	case "route-warm":
		return s.warmRoute()
	case "route-cold":
		return s.freshRoute()
	case "send-uniform":
		return sendOp(n, 256, s.rng)
	case "alltoall":
		return s.set.matrices[s.rng.Intn(len(s.set.matrices))]
	}
	if len(s.block) == 0 {
		for _, b := range mixedBlock {
			for i := 0; i < b.count; i++ {
				s.block = append(s.block, mixSlot{b.kind, b.fresh})
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	slot := s.block[0]
	s.block = s.block[1:]
	switch {
	case slot.kind == kindRoute && slot.fresh:
		return s.freshRoute()
	case slot.kind == kindRoute:
		return s.warmRoute()
	case slot.kind == kindSend:
		return sendOp(n, 64, s.rng)
	case slot.kind == kindMulticast:
		return s.set.mappings[s.rng.Intn(len(s.set.mappings))]
	}
	return broadcastOp(n, s.rng)
}

// setupOps are the requests that complete one server start: route-warm
// and mixed-journal route their whole working set (each a cache miss),
// the other workloads send one op from the setup stream.
func setupOps(w *workload, set *shared, seed int64) []*op {
	if len(set.warm) > 0 {
		return set.warm
	}
	return []*op{newStream(w, set, seed, setupStream).next()}
}

// encode renders the op's HTTP request body.
func encode(o *op) []byte {
	if o.body != nil {
		return o.body
	}
	var b []byte
	switch o.kind {
	case kindRoute:
		b = append(b, `{"dest":`...)
		b = appendInts(b, o.dest)
		b = append(b, '}')
	case kindSend:
		b = append(b, `{"packets":[`...)
		for i := 0; i < len(o.pkts); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"src":`...)
			b = strconv.AppendInt(b, int64(o.pkts[i]), 10)
			b = append(b, `,"dst":`...)
			b = strconv.AppendInt(b, int64(o.pkts[i+1]), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	case kindMulticast:
		b = append(b, `{"map":`...)
		b = appendInts(b, o.mapping)
		b = append(b, '}')
	case kindAllToAll, kindBroadcast:
		b = append(b, `{"op":"`...)
		b = append(b, o.kind.String()...)
		b = append(b, '"')
		if o.kind == kindBroadcast {
			b = append(b, `,"root":`...)
			b = strconv.AppendInt(b, int64(o.root), 10)
		}
		b = append(b, `,"data":[`...)
		for i, row := range o.data {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, row)
		}
		b = append(b, "]}"...)
	}
	return b
}

func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
