package core

import "repro/internal/perm"

// HitRecorder hears the fault hits of a routing pass: FaultHit(stage,
// sw) is called once per pass for each stuck switch whose decided
// state differs from the state it is stuck in. *netsim.Recorder
// satisfies it, and netsim's goroutine engine counts hits by the same
// rule.
type HitRecorder interface {
	FaultHit(stage, sw int)
}

// rule is how a pass sets its switches: Fig. 3's rule, or one of its
// overrides, the omega bit and an external setting (mode). The E22
// ablation replaces Fig. 3's control bits by schedule and its upper
// input by src.
type rule struct {
	mode     Mode
	ext      States // External: the loaded setting
	schedule []int  // nil: ControlBit(s)
	src      ControlSource
}

// stageRule is a rule at one stage. A switch is crossed when ext says
// so or, with ext nil, when bit cb of the tag on its input in, masked
// by mask and complemented by inv, is 1; mask 0 forces it straight.
type stageRule struct {
	ext           []bool
	cb            uint
	in, mask, inv int
}

// ruleAt returns r at stage s.
func (b *Network) ruleAt(r *rule, s int) stageRule {
	switch {
	case r.mode == External:
		return stageRule{ext: r.ext[s]}
	case r.mode == OmegaForced && s <= b.n-2:
		return stageRule{}
	}
	sr := stageRule{cb: uint(b.ControlBit(s)), mask: 1}
	if r.schedule != nil {
		sr.cb = uint(r.schedule[s])
	}
	switch r.src {
	case LowerInput:
		sr.in = 1
	case LowerInputInverted:
		sr.in, sr.inv = 1, 1
	}
	return sr
}

// crossed returns 1 when switch i is set crossed by the tags on the
// stage's input lines, 0 when it is set straight.
func (sr stageRule) crossed(tags []int, i int) int {
	if sr.ext != nil {
		if sr.ext[i] {
			return 1
		}
		return 0
	}
	return tags[2*i+sr.in]>>sr.cb&sr.mask ^ sr.inv
}

// pass is the synchronous evaluator every mode, the ablation and the
// fault model share. It moves d's tags through the stages under r,
// with the switches in faults stuck, and writes the realized
// permutation into dst: dst[i] is the output input i's tag reached.
// With res non-nil it also records the states it set and the tag trace
// into res.
//
// Each stage is decided whole, then corrected for its faults: a switch
// reads only its own input lines, which the stage leaves in place, so
// a stuck switch's decided state is read again there and, where it
// differs, the switch's two outputs trade places and hits hears of it.
// Of two faults on one switch the later holds.
func (fr *FaultRouter) pass(d perm.Perm, r *rule, faults []Fault, hits HitRecorder, res *Result, dst perm.Perm) {
	b := fr.net
	tags, src, next, nextSrc := fr.tags, fr.src, fr.next, fr.nextSrc
	copy(tags, d)
	for i := range src {
		src[i] = i
	}
	if res != nil {
		res.TagTrace[0] = append([]int(nil), tags...)
	}
	for s := 0; s < b.stages; s++ {
		sr := b.ruleAt(r, s)
		link := b.ident
		if s < b.stages-1 {
			link = b.link[s]
		}
		var st []bool
		if res != nil {
			st = res.States[s]
		}
		for i := 0; i < b.size/2; i++ {
			c := sr.crossed(tags, i)
			if st != nil {
				st[i] = c == 1
			}
			// The upper input leaves on output 2i+c, the lower on the
			// other one.
			up, lo := link[2*i+c], link[2*i+1-c]
			next[up], nextSrc[up] = tags[2*i], src[2*i]
			next[lo], nextSrc[lo] = tags[2*i+1], src[2*i+1]
		}
		for k, f := range faults {
			if f.Stage != s || overridden(f, faults[k+1:]) || (sr.crossed(tags, f.Switch) == 1) == f.StuckCrossed {
				continue
			}
			up, lo := link[2*f.Switch], link[2*f.Switch+1]
			next[up], next[lo] = next[lo], next[up]
			nextSrc[up], nextSrc[lo] = nextSrc[lo], nextSrc[up]
			if st != nil {
				st[f.Switch] = f.StuckCrossed
			}
			if hits != nil {
				hits.FaultHit(s, f.Switch)
			}
		}
		tags, next = next, tags
		src, nextSrc = nextSrc, src
		if res != nil {
			res.TagTrace[s+1] = append([]int(nil), tags...)
		}
	}
	for out, in := range src {
		dst[in] = out
	}
}

// overridden reports whether a fault in later names f's switch.
func overridden(f Fault, later []Fault) bool {
	for _, g := range later {
		if g.Stage == f.Stage && g.Switch == f.Switch {
			return true
		}
	}
	return false
}
