package mcast

import (
	"fmt"
	"time"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/perm"
)

// Plan is a compiled multicast mapping: the three-phase switch program
// that carries one copy-network pass. The two B(n) phases are ordinary
// binary settings (loadable on the paper's hardware via external
// setup); the ladder is the four-state copy section, whose stage j
// decides destination-address bit n-1-j after a perfect shuffle.
type Plan struct {
	Map Mapping // the compiled request, output-major

	// Dist sends requested source s to ladder input line rank(s); the
	// unrequested inputs fill the remaining lines.
	Dist perm.Perm

	// Perm moves ladder output line (slot) start_s + c to the c-th
	// output requesting s; unassigned slots fill the spare outputs.
	Perm perm.Perm

	// Words is the switch program, packed: the distribute and permute
	// B(n) settings and the ladder's lo and hi words (packed.go).
	Words []uint64

	Sources       int // distinct requested sources
	Copies        int // assigned outputs (total fan-out)
	BcastSwitches int // ladder switches in a broadcast state
}

// interval is one ladder packet: the contiguous destination-address
// range [lo, hi] carried for source src. Inactive lines have src = -1.
type interval struct {
	lo, hi, src int
}

// Compiler compiles mappings for one network geometry, without
// per-call allocation: the switch program into the caller's words, the
// rest into one plan it owns. A Compiler belongs to one goroutine.
type Compiler struct {
	net  *core.Network
	sc   *core.SetupScratch
	plan *Plan // the plan compile writes, Words aside

	fan   []int // per-source fan-out
	start []int // per-source first destination slot (prefix sums)
	used  []int // per-source copies placed so far (permute phase)
	cur   []interval
	nxt   []interval

	// Phase timings of the last compile, for the serving layer's
	// mcast_distribute / mcast_copy stage histograms: DistTime covers
	// the two B(n) looping setups, CopyTime the ladder.
	DistTime time.Duration
	CopyTime time.Duration
}

// NewCompiler builds a compiler for net.
func NewCompiler(net *core.Network) *Compiler {
	n := net.N()
	return &Compiler{
		net:   net,
		sc:    core.NewSetupScratch(net),
		plan:  &Plan{Map: make(Mapping, n), Dist: make(perm.Perm, n), Perm: make(perm.Perm, n)},
		fan:   make([]int, n),
		start: make([]int, n),
		used:  make([]int, n),
		cur:   make([]interval, n),
		nxt:   make([]interval, n),
	}
}

// Compile validates m and produces a fresh plan.
func Compile(net *core.Network, m Mapping) (*Plan, error) {
	c := NewCompiler(net)
	words := make([]uint64, PackedLen(net))
	if err := c.compile(m, words); err != nil {
		return nil, err
	}
	c.plan.Words = words
	return c.plan, nil
}

// CompilePacked validates and compiles m, writing the switch program
// into dst[:PackedLen(net)] (every word is overwritten). It allocates
// nothing, making it the entry point for compiles on the serving path.
func (c *Compiler) CompilePacked(m Mapping, dst []uint64) error {
	return c.compile(m, dst[:PackedLen(c.net)])
}

// compile compiles m: the switch program into words, every other plan
// field into c.plan.
func (c *Compiler) compile(m Mapping, words []uint64) error {
	net, p := c.net, c.plan
	distW, permW, lo, hi := Phases(net, words)
	size := net.N()
	if err := m.Validate(size); err != nil {
		return err
	}
	copy(p.Map, m)

	// Fan-outs and rank-concentrated slot layout: the r-th smallest
	// requested source owns the slot interval [start_r, start_r+fan_r).
	for s := range c.fan {
		c.fan[s], c.used[s] = 0, 0
	}
	for _, src := range m {
		if src >= 0 {
			c.fan[src]++
		}
	}
	rank, total := 0, 0
	for s := 0; s < size; s++ {
		if c.fan[s] > 0 {
			c.start[s] = total
			// Dist places source s on ladder line rank; ladder line
			// rank <= start_s always holds since every earlier source
			// contributes at least one slot.
			p.Dist[s] = rank
			rank++
			total += c.fan[s]
		} else {
			c.start[s] = -1
		}
	}
	p.Sources, p.Copies = rank, total

	// Unrequested inputs fill the remaining dist outputs ascending,
	// keeping Dist a permutation the looping algorithm can set up.
	fill := rank
	for s := 0; s < size; s++ {
		if c.fan[s] == 0 {
			p.Dist[s] = fill
			fill++
		}
	}
	t0 := time.Now()
	net.SetupInto(p.Dist, distW, c.sc)
	c.DistTime = time.Since(t0)

	// Copy ladder: line r enters carrying the interval of the rank-r
	// source; each omega stage splits intervals on one address bit,
	// most significant first.
	t1 := time.Now()
	if err := c.compileLadder(p, lo, hi); err != nil {
		return err
	}
	c.CopyTime = time.Since(t1)

	// Permute: slot start_s + c goes to the c-th output requesting s
	// (outputs ascending); idle slots fill the unassigned outputs.
	for out, src := range m {
		if src >= 0 {
			p.Perm[c.start[src]+c.used[src]] = out
			c.used[src]++
		}
	}
	slot := total
	for out, src := range m {
		if src < 0 {
			p.Perm[slot] = out
			slot++
		}
	}
	t2 := time.Now()
	net.SetupInto(p.Perm, permW, c.sc)
	c.DistTime += time.Since(t2)
	return nil
}

// compileLadder programs the omega copy section into its packed lo and
// hi words, a word of each built in a register. An active line
// carries an interval; a switch whose interval spans both halves of the
// current address bit broadcasts and splits it. With concentrated,
// monotone, disjoint intervals no two inputs of a switch ever demand
// overlapping output sides, so the internal conflict errors are
// unreachable for plans built by compile — they guard the invariant,
// not a caller-visible failure mode.
func (c *Compiler) compileLadder(p *Plan, lo, hi []uint64) error {
	net := c.net
	size, n, w := net.N(), net.LogN(), net.StageWords()
	for i := range c.cur {
		c.cur[i] = interval{src: -1}
	}
	r := 0
	for s := 0; s < size; s++ {
		if c.fan[s] > 0 {
			c.cur[r] = interval{lo: c.start[s], hi: c.start[s] + c.fan[s] - 1, src: s}
			r++
		}
	}
	bcast := 0
	for j := 0; j < n; j++ {
		b := n - 1 - j // address bit decided by stage j
		// Perfect shuffle into the stage's switch inputs.
		for i := 0; i < size; i++ {
			c.nxt[bits.RotLeft(i, n)] = c.cur[i]
		}
		for k := 0; k < w; k++ {
			var l, h uint64
			for sw, end := k*64, min(k*64+64, size/2); sw < end; sw++ {
				in0, in1 := c.nxt[2*sw], c.nxt[2*sw+1]
				st, out0, out1, err := ladderSwitch(in0, in1, b, j, sw)
				if err != nil {
					return err
				}
				l |= uint64(st&1) << (uint(sw) & 63)
				h |= uint64(st>>1) << (uint(sw) & 63)
				bcast += int(st >> 1)
				c.cur[2*sw], c.cur[2*sw+1] = out0, out1
			}
			lo[j*w+k], hi[j*w+k] = l, h
		}
	}
	p.BcastSwitches = bcast
	for a := 0; a < size; a++ {
		iv := c.cur[a]
		if iv.src >= 0 && (iv.lo != a || iv.hi != a) {
			return fmt.Errorf("mcast: internal: ladder left interval [%d,%d] of source %d on line %d",
				iv.lo, iv.hi, iv.src, a)
		}
	}
	return nil
}

// ladderSwitch decides one four-state switch: each active input wants
// the upper output (bit b of its whole interval is 0), the lower (bit
// 1), or both (the interval spans the halves — broadcast and split).
func ladderSwitch(in0, in1 interval, b, stage, sw int) (core.McastState, interval, interval, error) {
	idle := interval{src: -1}
	lo0, hi0 := demand(in0, b)
	lo1, hi1 := demand(in1, b)
	switch {
	case lo0 && hi0: // upper input broadcasts
		if in1.src >= 0 {
			return 0, idle, idle, conflict(stage, sw, in0, in1)
		}
		up, down := split(in0, b)
		return core.McBcastUpper, up, down, nil
	case lo1 && hi1: // lower input broadcasts
		if in0.src >= 0 {
			return 0, idle, idle, conflict(stage, sw, in0, in1)
		}
		up, down := split(in1, b)
		return core.McBcastLower, up, down, nil
	case lo0 && lo1, hi0 && hi1:
		return 0, idle, idle, conflict(stage, sw, in0, in1)
	case hi0 || lo1: // at least one input crosses sides
		return core.McCross, orIdle(in1, lo1), orIdle(in0, hi0), nil
	default:
		return core.McStraight, orIdle(in0, lo0), orIdle(in1, hi1), nil
	}
}

// demand reports whether the interval needs the bit-b=0 side (upper
// switch output) and/or the bit-b=1 side.
func demand(iv interval, b int) (up, down bool) {
	if iv.src < 0 {
		return false, false
	}
	return bits.Bit(iv.lo, b) == 0, bits.Bit(iv.hi, b) == 1
}

// split divides a spanning interval at bit b into its upper (bit 0)
// and lower (bit 1) halves. The interval's addresses agree on every
// bit above b, so the cut point is the bit-b boundary of lo's block.
func split(iv interval, b int) (up, down interval) {
	base := iv.lo &^ ((1 << uint(b+1)) - 1)
	mid := base | 1<<uint(b)
	return interval{lo: iv.lo, hi: mid - 1, src: iv.src},
		interval{lo: mid, hi: iv.hi, src: iv.src}
}

// orIdle passes the interval through when active is true, else idle.
func orIdle(iv interval, active bool) interval {
	if active {
		return iv
	}
	return interval{src: -1}
}

func conflict(stage, sw int, in0, in1 interval) error {
	return fmt.Errorf("mcast: internal: ladder conflict at stage %d switch %d: [%d,%d]@%d vs [%d,%d]@%d",
		stage, sw, in0.lo, in0.hi, in0.src, in1.lo, in1.hi, in1.src)
}
