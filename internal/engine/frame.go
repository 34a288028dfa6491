package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FrameServer is the engine's synchronous frame-serving path, built for
// the packet fabric's hot loop. The general Route path is shaped for
// arbitrary clients: it consults the plan cache, and on a miss first
// attempts the paper's self-routing check before falling back to the
// looping algorithm. Both are wrong for frames:
//
//   - a frame's destination vector is a random completed matching, so
//     consecutive frames essentially never repeat — every cache lookup
//     misses, every insert churns a useful plan out of the LRU;
//   - random permutations are essentially never in F(n). The
//     self-routing kernel (core.Network.SelfRouteInto) stops at its
//     first conflict, but for a random permutation that conflict sits
//     in the first few switches of stage n-1, after the n-1 stages that
//     cannot conflict — about half a full setting's switch decisions,
//     thrown away per frame.
//
// A FrameServer therefore skips the cache and goes straight to the
// looping algorithm, which writes the packed setting directly, reusing
// one setup scratch, one packed setting and one line buffer across
// calls — the steady-state frame costs zero allocations. The one
// repeat that does happen in practice (a single hot flow producing the
// same completed matching frame after frame) is caught by an O(N)
// last-destination memo instead of the cache, and reuses the packed
// setting as it stands.
//
// A FrameServer belongs to one goroutine; create one per serving
// goroutine via NewFrameServer. Concurrent FrameServers over the same
// engine are safe — they share only the network wiring (read-only), the
// metrics atomics, and the recorder (internally locked).
type FrameServer[T any] struct {
	e        *Engine[T]
	sc       *core.SetupScratch
	words    []uint64 // the frame's setting: what the walk checks and the recorder diffs
	lines    []int    // the real packets' lines, walked back from their outputs
	paths    *netsim.Paths
	last     perm.Perm // previously served dest; valid when haveLast
	haveLast bool
}

// NewFrameServer builds a frame-serving context over e for one
// goroutine's exclusive use.
func (e *Engine[T]) NewFrameServer() *FrameServer[T] {
	return &FrameServer[T]{
		e:     e,
		sc:    core.NewSetupScratch(e.net),
		words: make([]uint64, e.net.Stages()*e.net.StageWords()),
		lines: make([]int, e.net.N()),
		paths: e.rec.NewPaths(), // nil (and inert) when accounting is off
		last:  make(perm.Perm, e.net.N()),
	}
}

// Serve routes one frame synchronously: dest is the frame's full
// permutation (a completed matching — valid by construction, like every
// Complete output), and real lists the input terminals carrying real
// packets. Serve writes the packed switch setting with the looping
// algorithm, then walks each real packet's output dest[src] back
// through the packed setting (netsim.WalkBack) and verifies it reaches
// src — the output-port tag check frames carry — before reporting
// success. With a flight recorder attached the walk doubles as
// traversal accounting: it marks each packet's path in per-stage bit
// words, and a verified frame adds those words and the setting's flips
// to the recorder in one call. The frame's filler assignments pin
// switches but are neither walked nor verified, and a frame that fails
// verification records nothing.
func (fs *FrameServer[T]) Serve(dest perm.Perm, real []int) error {
	e := fs.e
	if len(dest) != e.net.N() {
		e.met.Errors.Add(1)
		return fmt.Errorf("engine: frame size %d does not match N=%d", len(dest), e.net.N())
	}
	t0 := time.Now()
	if !(fs.haveLast && fs.last.Equal(dest)) {
		e.net.SetupInto(dest, fs.words, fs.sc)
		copy(fs.last, dest)
		fs.haveLast = true
	}
	e.met.Plan.Observe(time.Since(t0))

	// A gate-level verification: a wrong switch state anywhere on a
	// packet's path walks its output back to some other input.
	t1 := time.Now()
	lines := fs.lines[:len(real)]
	for k, src := range real {
		lines[k] = dest[src]
	}
	fs.paths.Reset()
	netsim.WalkBack(e.net, fs.words, lines, nil, fs.paths)
	for k, src := range real {
		if lines[k] != src {
			e.met.Errors.Add(1)
			return fmt.Errorf("engine: frame fed output %d from input %d, want %d", dest[src], lines[k], src)
		}
	}
	e.met.Apply.Observe(time.Since(t1))
	e.rec.RecordFrame(fs.words, fs.paths)
	e.met.Frames.Add(1)
	return nil
}
