package core

import (
	"fmt"

	"repro/internal/perm"
)

// Mode selects how the switches obtain their states during a routing.
type Mode int

const (
	// SelfRouting is the paper's scheme: every switch sets itself from
	// the control bit of its upper input's destination tag (Fig. 3).
	SelfRouting Mode = iota
	// OmegaForced is the "omega bit" extension of Section II: switches
	// in stages 0..n-2 are forced straight; the last n stages
	// self-route. This realizes every Omega(n) permutation.
	OmegaForced
	// External disables the self-setting logic entirely and routes with
	// caller-supplied switch states (see Setup); this realizes all N!.
	External
)

func (m Mode) String() string {
	switch m {
	case SelfRouting:
		return "self-routing"
	case OmegaForced:
		return "omega-forced"
	case External:
		return "external"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Result reports everything observable about one routing pass.
type Result struct {
	Mode     Mode
	States   States    // the setting used (decided dynamically unless External)
	Realized perm.Perm // Realized[i] = output terminal reached by input i
	// TagTrace[s][y] is the destination tag present on line y at the
	// *input* of stage s; TagTrace[Stages()] holds the network outputs.
	// This is the data printed in the paper's Fig. 4.
	TagTrace [][]int
	// Misrouted lists the inputs i whose tag did not arrive at output
	// D[i]; empty exactly when the permutation was realized.
	Misrouted []int
}

// OK reports whether the routing delivered every input to its
// destination.
func (r *Result) OK() bool { return len(r.Misrouted) == 0 }

// route runs one pass (pass.go) on fresh scratch and reports it in
// full: the states it set, the tag trace, the realized permutation and
// the misrouted inputs.
func (b *Network) route(d perm.Perm, r rule, faults []Fault, hits HitRecorder) *Result {
	if len(d) != b.size {
		panic(fmt.Sprintf("core: permutation length %d does not match network size %d", len(d), b.size))
	}
	res := &Result{
		Mode:     r.mode,
		States:   b.NewStates(),
		Realized: make(perm.Perm, b.size),
		TagTrace: make([][]int, b.stages+1),
	}
	b.NewFaultRouter().pass(d, &r, faults, hits, res, res.Realized)
	for i, dest := range d {
		if res.Realized[i] != dest {
			res.Misrouted = append(res.Misrouted, i)
		}
	}
	return res
}

// SelfRoute routes the permutation d with the self-setting switch logic
// and reports the outcome. The routing always completes (switches always
// resolve a state); d was realized iff Result.OK().
//
// SelfRoute is the reference evaluator: it records the full Fig. 4 tag
// trace and the realized mapping, allocating a fresh N-int slice per
// stage. Serving paths that only need the verdict and the states use
// SelfRouteInto.
func (b *Network) SelfRoute(d perm.Perm) *Result {
	return b.route(d, rule{}, nil, nil)
}

// SelfRouteInto is the serving-path kernel of SelfRoute: it applies the
// Fig. 3 switch rule stage by stage, writes each stage's self-set
// states into words packed (pack.go's layout, each word built in a
// register and stored once), and reports whether d is realized. It
// keeps no trace and allocates nothing; its two tag buffers are sc's
// loop-resolution arrays.
//
// From stage n-1 on, each stage fixes one bit of the output a tag
// reaches (stage s its control bit), whichever line the tag entered
// stage n-1 on. So a tag arrives at its destination exactly when, at
// every switch in stages n-1..2n-2, it leaves on the output its bit
// asks for, and a switch there misroutes one of its two tags exactly
// when both ask for the same output. SelfRouteInto returns false at
// the first such switch (stage by stage, lowest switch first), leaving
// words partly written; SetupInto overwrites every word.
//
// d must be a permutation of length N; only the length is checked.
// For such d the verdict equals SelfRoute(d).OK(), and on true words
// equal SelfRoute(d).States packed.
func (b *Network) SelfRouteInto(d perm.Perm, words []uint64, sc *SetupScratch) bool {
	if len(d) != b.size {
		panic(fmt.Sprintf("core: SelfRouteInto: permutation length %d != N %d", len(d), b.size))
	}
	half, w := b.size/2, b.StageWords()
	tags, next := sc.invDest[:b.size], sc.up[:b.size]
	copy(tags, d)
	for s := 0; s < b.stages; s++ {
		cb := uint(b.ControlBit(s))
		checked := s >= b.n-1
		var link []int
		if s < b.stages-1 {
			link = b.link[s]
		}
		row := words[s*w : (s+1)*w]
		for k := range row {
			var word uint64
			for i, end := k*64, min(k*64+64, half); i < end; i++ {
				up, lo := tags[2*i], tags[2*i+1]
				bit := (up >> cb) & 1
				if checked && (lo>>cb)&1 == bit {
					return false
				}
				word |= uint64(bit) << (uint(i) & 63)
				if link != nil {
					// The upper tag leaves on output 2i+bit, the lower on
					// the other one.
					next[link[2*i+bit]] = up
					next[link[2*i+1-bit]] = lo
				}
			}
			row[k] = word
		}
		tags, next = next, tags
	}
	return true
}

// OmegaRoute routes d with the omega bit asserted: stages 0..n-2 forced
// straight, the final n stages self-routing.
func (b *Network) OmegaRoute(d perm.Perm) *Result {
	return b.route(d, rule{mode: OmegaForced}, nil, nil)
}

// ExternalRoute routes d with self-setting disabled, using the supplied
// switch states (typically from Setup).
func (b *Network) ExternalRoute(d perm.Perm, st States) *Result {
	if len(st) != b.stages {
		panic("core: external states have wrong stage count")
	}
	for s := range st {
		if len(st[s]) != b.size/2 {
			panic("core: external states have wrong stage width")
		}
	}
	return b.route(d, rule{mode: External, ext: st}, nil, nil)
}

// Realizes reports whether the self-routing scheme performs d, i.e.
// whether d is in F(n). Tests confirm this agrees with the recursive
// characterization perm.InF (Theorem 1).
func (b *Network) Realizes(d perm.Perm) bool {
	return b.SelfRoute(d).OK()
}

// RealizesOmega reports whether d is performed with the omega bit set.
func (b *Network) RealizesOmega(d perm.Perm) bool {
	return b.OmegaRoute(d).OK()
}

// Permute physically moves data through the network under self-routing:
// data[i] is delivered to position d[i] of the returned slice. It panics
// if d is not realizable (not in F(n)); use Setup + ExternalRoute for
// arbitrary permutations.
func Permute[T any](b *Network, d perm.Perm, data []T) []T {
	res := b.SelfRoute(d)
	if !res.OK() {
		panic(fmt.Sprintf("core: %v is not self-routable (not in F(%d))", d, b.n))
	}
	return perm.Apply(res.Realized, data)
}
