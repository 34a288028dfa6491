// Package netsim runs the self-routing Benes network of package core as
// concurrent hardware: one goroutine per binary switch, one channel per
// wire. Switches are self-timed — each decides its state the moment the
// destination tag appears on its upper input (the paper's Fig. 3 logic)
// and forwards signals without any global clock. Streams of vectors
// flow through in pipelined fashion (Section IV): a switch finishes
// vector k on its wires before vector k+1 arrives on the same wires,
// because channels preserve order. Every message counts the switches it
// crosses, so each output's arrival time is observed, not computed from
// the stage count.
//
// The engine is validated against the synchronous evaluator of package
// core: identical topology (core.Network.Wiring), identical switch
// logic and overrides (omega bit, external setting, stuck switches),
// so identical realized permutations, switch states and fault hits.
package netsim

import (
	"sync"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/perm"
)

// Msg is one tagged datum on a wire.
type Msg struct {
	Tag  int // destination tag, routed on
	Src  int // originating input terminal
	Hops int // switches crossed so far
}

// VectorResult reports the outcome for one routed vector.
type VectorResult struct {
	Realized  perm.Perm // Realized[i] = output reached by input i
	Misrouted []int     // inputs whose tag did not reach its output
	// ArrivalTime[y] is the logical time the signal on output y arrived
	// at: the switches it crossed, one unit of self-timed delay each.
	// Every output arrives at GateDelay() = 2 log N - 1, the paper's
	// transmission delay.
	ArrivalTime []int
}

// OK reports whether the vector's permutation was realized.
func (v *VectorResult) OK() bool { return len(v.Misrouted) == 0 }

// Engine is a concurrent instantiation of a Benes network.
type Engine struct {
	net   *core.Network
	stuck map[switchID]bool // injected faults: switch -> frozen state
	rec   *Recorder         // gate-level flight recorder; nil = disabled
	omega bool              // omega bit asserted: stages 0..n-2 forced straight
	ext   core.States       // external setting; nil = switches self-set
}

// SetRecorder enables full gate-level accounting: every switch records
// traversals, flips, forced settings, and fault hits into r. A nil r
// disables recording; the per-message cost is then a single nil check.
// Not safe to call concurrently with Run.
func (e *Engine) SetRecorder(r *Recorder) { e.rec = r }

// SetOmega asserts or clears the omega bit (Section II): with it set,
// switches in stages 0..n-2 are forced straight instead of reading
// their control bit, so every Omega(n) permutation self-routes. Not
// safe to call concurrently with Run.
func (e *Engine) SetOmega(on bool) { e.omega = on }

// SetExternal loads an external setting (Section I): with st non-nil,
// every switch takes its state from st instead of its control bit, and
// the omega bit is ignored; nil restores self-setting. A stuck switch
// still holds its stuck state. It panics unless st has one row of N/2
// states per stage. Not safe to call concurrently with Run.
func (e *Engine) SetExternal(st core.States) {
	if st != nil && len(st) != e.net.Stages() {
		panic("netsim: external states have wrong stage count")
	}
	for _, row := range st {
		if len(row) != e.net.SwitchesPerStage() {
			panic("netsim: external states have wrong stage width")
		}
	}
	e.ext = st
}

type switchID struct{ stage, sw int }

// New wraps a core network for concurrent execution.
func New(net *core.Network) *Engine {
	return &Engine{net: net}
}

// NewWithFaults wraps a core network whose listed switches are frozen
// in their stuck states: the per-switch goroutines ignore the control
// bit and forward according to the fault, so vectors that need the
// other state misroute — the concurrent analogue of
// core.RouteWithFaults. Of two faults on one switch the later holds,
// and a recorder counts one fault hit per vector whose decided state
// differs from it (core.HitRecorder's rule). Like RouteWithFaults, it
// panics with core.CheckFault's error on a fault out of range.
func NewWithFaults(net *core.Network, faults []core.Fault) *Engine {
	e := &Engine{net: net, stuck: make(map[switchID]bool, len(faults))}
	for _, f := range faults {
		if err := net.CheckFault(f); err != nil {
			panic(err)
		}
		e.stuck[switchID{f.Stage, f.Switch}] = f.StuckCrossed
	}
	return e
}

// Run streams the given destination-tag vectors through the network,
// one goroutine per switch, and returns one result per vector, in input
// order. Every vector routes under the engine's settings (self-routing
// unless SetOmega or SetExternal says otherwise, stuck switches
// included); Run also returns the switch states set for the first
// vector so callers can compare against the synchronous engine.
func (e *Engine) Run(vectors []perm.Perm) ([]VectorResult, core.States) {
	N := e.net.N()
	stages := e.net.Stages()
	depth := len(vectors)
	for _, d := range vectors {
		if len(d) != N {
			panic("netsim: vector length mismatch")
		}
	}

	// wires[s][y] carries the signal entering stage s on line y;
	// wires[stages] holds the network outputs. Buffered to the stream
	// depth so producers never block on slow consumers.
	wires := make([][]chan Msg, stages+1)
	for s := range wires {
		wires[s] = make([]chan Msg, N)
		for y := range wires[s] {
			wires[s][y] = make(chan Msg, depth)
		}
	}
	link := e.net.Wiring()

	firstStates := e.net.NewStates()
	rec := e.rec
	var wg sync.WaitGroup
	for s := 0; s < stages; s++ {
		cb := e.net.ControlBit(s)
		var ext []bool
		if e.ext != nil {
			ext = e.ext[s]
		}
		forced := ext == nil && e.omega && s <= e.net.LogN()-2
		for i := 0; i < N/2; i++ {
			frozen, isStuck := e.stuck[switchID{s, i}]
			wg.Add(1)
			go func(s, i, cb int) {
				defer wg.Done()
				upIn, loIn := wires[s][2*i], wires[s][2*i+1]
				var upOut, loOut chan Msg
				if s == stages-1 {
					upOut, loOut = wires[stages][2*i], wires[stages][2*i+1]
				} else {
					upOut, loOut = wires[s+1][link[s][2*i]], wires[s+1][link[s][2*i+1]]
				}
				prev := false // power-on state: straight
				for k := 0; k < depth; k++ {
					// The switch decides from the upper input's control
					// bit and forwards it immediately — self-timing. An
					// external setting overrides the bit, a forced switch
					// (omega bit) stays straight, and a stuck switch cannot
					// decide at all.
					u := <-upIn
					var desired bool
					switch {
					case ext != nil:
						desired = ext[i]
					case !forced:
						desired = bits.Bit(u.Tag, cb) == 1
					}
					crossed := desired
					if isStuck {
						crossed = frozen
					}
					if rec != nil {
						rec.Traverse(s, i)
						if forced {
							rec.Forced(s, i)
						}
						if crossed != prev {
							rec.Flip(s, i)
						}
						if isStuck && desired != frozen {
							rec.FaultHit(s, i)
						}
					}
					prev = crossed
					if k == 0 {
						firstStates[s][i] = crossed
					}
					u.Hops++
					if crossed {
						loOut <- u
					} else {
						upOut <- u
					}
					l := <-loIn
					l.Hops++
					rec.Traverse(s, i)
					if crossed {
						upOut <- l
					} else {
						loOut <- l
					}
				}
			}(s, i, cb)
		}
	}

	// Feed all vectors, then collect.
	go func() {
		for _, d := range vectors {
			for i, tag := range d {
				wires[0][i] <- Msg{Tag: tag, Src: i}
			}
		}
	}()

	results := make([]VectorResult, depth)
	for k := range results {
		realized := make(perm.Perm, N)
		arrival := make([]int, N)
		for y := 0; y < N; y++ {
			m := <-wires[stages][y]
			realized[m.Src] = y
			arrival[y] = m.Hops
		}
		results[k].Realized = realized
		results[k].ArrivalTime = arrival
		for i, dest := range vectors[k] {
			if realized[i] != dest {
				results[k].Misrouted = append(results[k].Misrouted, i)
			}
		}
	}
	wg.Wait()
	return results, firstStates
}

// RouteOne is a convenience wrapper routing a single vector.
func (e *Engine) RouteOne(d perm.Perm) (VectorResult, core.States) {
	res, st := e.Run([]perm.Perm{d})
	return res[0], st
}
