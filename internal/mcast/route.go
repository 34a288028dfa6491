package mcast

import (
	"repro/internal/bits"
	"repro/internal/core"
)

// ladderRoute pushes one tag vector through a copy ladder, given as
// its packed lo and hi words, at gate level: n rounds of perfect
// shuffle then four-state exchange. in[r] is the tag entering ladder
// line r (-1 idle); the result is the tag on every ladder output line.
func ladderRoute(net *core.Network, lo, hi []uint64, in []int) []int {
	size, n, w := net.N(), net.LogN(), net.StageWords()
	cur := append([]int(nil), in...)
	nxt := make([]int, size)
	for j := 0; j < n; j++ {
		for i := 0; i < size; i++ {
			nxt[bits.RotLeft(i, n)] = cur[i]
		}
		for sw := 0; sw < size/2; sw++ {
			i, b := j*w+sw>>6, uint(sw)&63
			st := core.McastState(lo[i]>>b&1 | hi[i]>>b&1<<1)
			cur[2*sw], cur[2*sw+1] = st.Apply(nxt[2*sw], nxt[2*sw+1])
		}
	}
	return cur
}

// Route evaluates the whole plan at gate level — distribute through
// B(n), copy through the ladder, permute through B(n) — with source
// tags on the requested inputs, and returns the multiset-checked
// result. This is the plan's end-to-end proof obligation, run on the
// switch states unpacked from p.Words; the serving paths use the
// cheaper Walk on the packed words instead.
func (p *Plan) Route(net *core.Network) *core.McastResult {
	size := net.N()
	dist, perm, lo, hi := Phases(net, p.Words)
	distSt, permSt := net.NewStates(), net.NewStates()
	distSt.Unpack(dist)
	permSt.Unpack(perm)
	tags := make([]int, size)
	for i := range tags {
		tags[i] = -1
	}
	for _, src := range p.Map {
		if src >= 0 {
			tags[src] = src
		}
	}
	afterDist, distTrace := net.McastRoute(tags, distSt.Mcast())
	afterCopy := ladderRoute(net, lo, hi, afterDist)
	delivered, permTrace := net.McastRoute(afterCopy, permSt.Mcast())
	trace := append(distTrace, permTrace[1:]...)
	return &core.McastResult{
		Requested: append([]int(nil), p.Map...),
		Delivered: delivered,
		TagTrace:  trace,
		Misrouted: core.CheckMulticast(p.Map, delivered),
	}
}

// Apply carries a payload vector through mapping m without gate
// simulation: out[o] = in[m[o]] for assigned outputs, the zero value
// elsewhere. A compiled plan of m is the proof that the switch program
// realizes this mapping (Plan.Route and Walk check it at gate level).
func Apply[T any](m Mapping, in []T, out []T) []T {
	var zero T
	if out == nil {
		out = make([]T, len(m))
	}
	for o, src := range m {
		if src >= 0 {
			out[o] = in[src]
		} else {
			out[o] = zero
		}
	}
	return out
}
