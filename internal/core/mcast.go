package core

import "sort"

// Multicast switch states. The paper's switch is two-state (straight /
// crossed); a copy network additionally lets a switch *broadcast* one
// input to both outputs (Nassimi & Sahni's generalized connector,
// Section I of the paper's intro; Burckel et al. for the rearrangeable
// multicast construction). McastState is the four-state generalization:
//
//	Straight     out0 <- in0, out1 <- in1
//	Cross        out0 <- in1, out1 <- in0
//	BcastUpper   out0 <- in0, out1 <- in0   (upper input copied)
//	BcastLower   out0 <- in1, out1 <- in1   (lower input copied)
//
// A binary States setting embeds into McastStates (straight/crossed
// only); the broadcast states are what a distribute-copy-permute plan
// loads into the ladder stages.
type McastState uint8

const (
	McStraight McastState = iota
	McCross
	McBcastUpper
	McBcastLower
)

// Broadcast reports whether the state copies one input to both outputs.
func (s McastState) Broadcast() bool { return s >= McBcastUpper }

func (s McastState) String() string {
	switch s {
	case McStraight:
		return "straight"
	case McCross:
		return "cross"
	case McBcastUpper:
		return "bcast-upper"
	case McBcastLower:
		return "bcast-lower"
	}
	return "invalid"
}

// McastStates is a full four-state switch setting: McastStates[s][i] is
// the state of switch i in stage s.
type McastStates [][]McastState

// NewMcastStates allocates an all-straight setting for the network.
func (b *Network) NewMcastStates() McastStates {
	st := make(McastStates, b.stages)
	for s := range st {
		st[s] = make([]McastState, b.size/2)
	}
	return st
}

// Mcast converts a binary setting to the four-state representation
// (no broadcast states).
func (st States) Mcast() McastStates {
	out := make(McastStates, len(st))
	for s := range st {
		out[s] = make([]McastState, len(st[s]))
		for i, crossed := range st[s] {
			if crossed {
				out[s][i] = McCross
			}
		}
	}
	return out
}

// Apply produces a switch's two output values from its two input
// values under the state. Idle lines carry -1 and broadcast states
// replicate whatever is on the chosen input, idle or not.
func (s McastState) Apply(in0, in1 int) (out0, out1 int) {
	switch s {
	case McCross:
		return in1, in0
	case McBcastUpper:
		return in0, in0
	case McBcastLower:
		return in1, in1
	}
	return in0, in1
}

// FeedLine returns the within-stage input line that drives within-stage
// output line y of the switch y/2 under the state — the backward step
// of a path walk. Broadcast states make the forward direction one-to-
// many but the backward direction stays a function.
func (s McastState) FeedLine(y int) int {
	switch s {
	case McCross:
		return y ^ 1
	case McBcastUpper:
		return y &^ 1
	case McBcastLower:
		return y | 1
	}
	return y
}

// McastResult reports one multicast pass through the network: the
// delivered source tag on every output, the tag on every line at every
// stage boundary, and the sources whose delivered output multiset does
// not equal the requested one.
type McastResult struct {
	States    McastStates
	Requested []int   // req[out] = source wanted at out, -1 = don't care
	Delivered []int   // Delivered[out] = source tag arriving at out, -1 = idle
	TagTrace  [][]int // stages+1 rows: tags at every boundary
	Misrouted []int   // sources with a wrong delivered multiset, ascending
}

// OK reports whether every requested source reached exactly its
// requested output multiset.
func (r *McastResult) OK() bool { return len(r.Misrouted) == 0 }

// McastRoute pushes one tag vector through the network under a
// four-state setting and returns the output tags plus the full
// boundary-by-boundary trace. tags[i] is the value entering input line
// i (-1 = idle); broadcast switches replicate it, so a tag can appear
// on many outputs.
func (b *Network) McastRoute(tags []int, st McastStates) (delivered []int, trace [][]int) {
	if len(tags) != b.size {
		panic("core: McastRoute tag vector has wrong length")
	}
	cur := append([]int(nil), tags...)
	next := make([]int, b.size)
	trace = make([][]int, b.stages+1)
	trace[0] = append([]int(nil), cur...)
	for s := 0; s < b.stages; s++ {
		for i := 0; i < b.size/2; i++ {
			next[2*i], next[2*i+1] = st[s][i].Apply(cur[2*i], cur[2*i+1])
		}
		if s < b.stages-1 {
			for y, v := range next {
				cur[b.link[s][y]] = v
			}
		} else {
			copy(cur, next)
		}
		trace[s+1] = append([]int(nil), cur...)
	}
	return cur, trace
}

// MulticastRoute evaluates a multicast request req (req[out] = source
// input wanted at out, -1 = don't care) under the setting: input line i
// enters carrying tag i when some output requests it and -1 otherwise,
// and the result records delivery and per-source multiset misroutes.
func (b *Network) MulticastRoute(req []int, st McastStates) *McastResult {
	if len(req) != b.size {
		panic("core: MulticastRoute request has wrong length")
	}
	tags := make([]int, b.size)
	for i := range tags {
		tags[i] = -1
	}
	for _, s := range req {
		if s >= 0 && s < b.size {
			tags[s] = s
		}
	}
	delivered, trace := b.McastRoute(tags, st)
	return &McastResult{
		States:    st,
		Requested: append([]int(nil), req...),
		Delivered: delivered,
		TagTrace:  trace,
		Misrouted: CheckMulticast(req, delivered),
	}
}

// CheckMulticast compares a requested fan-out mapping against a
// delivered output vector and returns the sources (ascending) whose
// delivered output multiset differs from the requested one — the
// multiset generalization of the paper's misroute check: source s is
// correct iff {out : delivered[out] = s} equals {out : req[out] = s}.
// Outputs with req[out] = -1 accept anything.
func CheckMulticast(req, delivered []int) []int {
	bad := map[int]bool{}
	for out := range req {
		w, g := -1, -1
		if out < len(req) {
			w = req[out]
		}
		if out < len(delivered) {
			g = delivered[out]
		}
		if w < 0 || w == g {
			continue
		}
		bad[w] = true // missing its requested output
		if g >= 0 {
			// The arriving source occupies an output it was not asked
			// for, unless that output also requested it (handled above).
			bad[g] = true
		}
	}
	if len(bad) == 0 {
		return nil
	}
	out := make([]int, 0, len(bad))
	for s := range bad {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
