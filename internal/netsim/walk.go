package netsim

import "repro/internal/core"

// WalkBack moves every line in lines, an output line of net, back to
// the input line that drives it under st, a switch setting packed as
// the setup kernels write it (core.Network.SetupInto). It is the one check that a packed B(n) setting
// delivers what it should: the frame server walks each real packet's
// output back to its source, the copy network's two B(n) phases walk
// their outputs through it, and journal replay walks all N outputs.
//
// The walk goes backward because that direction stays a function
// through the copy network's broadcast states, where one input feeds
// both outputs of a switch. It moves the whole batch a stage at a
// time, so the lines' independent chains of loads overlap. Every hop
// counts one traversal of its switch into rec and marks it in p, in
// the same loop; either may be nil. With both nil each stage runs a
// loop without the counting, whose inlined code would otherwise take
// registers from the plain walk.
func WalkBack(net *core.Network, st []uint64, lines []int, rec *Recorder, p *Paths) {
	w, tr := net.StageWords(), rec.Traversals()
	for s := net.Stages() - 1; s >= 0; s-- {
		row := st[s*w : (s+1)*w]
		var inv []int // nil at stage 0, whose inputs are the network's
		if s > 0 {
			inv = net.LinkInv(s - 1)
		}
		if rec == nil && p == nil {
			for k, y := range lines {
				lines[k] = hop(row, inv, y)
			}
			continue
		}
		for k, y := range lines {
			tr.Add(s, y>>1)
			p.Mark(s, y>>1)
			lines[k] = hop(row, inv, y)
		}
	}
}

// hop moves output line y of one stage, whose switch setting is row,
// through its switch to the input line feeding it, then back over inv,
// the wiring into the stage, when there is one.
func hop(row []uint64, inv []int, y int) int {
	sw := y >> 1
	// A crossed switch swaps the line parity; straight keeps it.
	y ^= int(row[sw>>6] >> (uint(sw) & 63) & 1)
	if inv != nil {
		y = inv[y]
	}
	return y
}
