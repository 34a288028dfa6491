package core

import "repro/internal/perm"

// FaultRouter holds the scratch of the synchronous routing pass, so a
// diagnosis sweep over thousands of fault candidates predicts without
// allocating. It is not safe for concurrent use: make one per
// goroutine with NewFaultRouter.
type FaultRouter struct {
	net           *Network
	tags, src     []int // the tags on a stage's input lines, and their inputs
	next, nextSrc []int // the same at the next stage's
}

// NewFaultRouter returns a router with scratch sized for b.
func (b *Network) NewFaultRouter() *FaultRouter {
	return &FaultRouter{
		net:     b,
		tags:    make([]int, b.size),
		src:     make([]int, b.size),
		next:    make([]int, b.size),
		nextSrc: make([]int, b.size),
	}
}

// Realized predicts a faulty self-routing pass: it self-routes d on
// fr's scratch with the listed switches stuck, tells hits (when
// non-nil) of every fault hit, and writes the realized permutation into
// dst (allocated when nil): dst[i] is the output input i's tag reached.
// It is RouteWithFaults without the states, the trace and the
// allocation: the prediction half of external fault diagnosis. Fault
// coordinates must be in range (see CheckFault).
func (fr *FaultRouter) Realized(d perm.Perm, faults []Fault, hits HitRecorder, dst perm.Perm) perm.Perm {
	if len(d) != fr.net.size {
		panic("core: FaultRouter.Realized size mismatch")
	}
	if dst == nil {
		dst = make(perm.Perm, fr.net.size)
	}
	fr.pass(d, &rule{}, faults, hits, nil, dst)
	return dst
}
