package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FrameServer is the engine's synchronous frame-serving path, built for
// the packet fabric's hot loop. The general Submit path is shaped for
// arbitrary clients: it hands the request to a worker pool through a
// channel, consults the plan cache, and on a miss first attempts the
// paper's self-routing check before falling back to the looping
// algorithm. All three of those are wrong for frames:
//
//   - a frame's destination vector is a random completed matching, so
//     consecutive frames essentially never repeat — every cache lookup
//     misses, every insert churns a useful plan out of the LRU;
//   - random permutations are essentially never in F(n). The
//     self-routing kernel (core.Network.SelfRouteInto) stops at its
//     first conflict, but for a random permutation that conflict sits
//     in the first few switches of stage n-1, after the n-1 stages that
//     cannot conflict — about half a full setting's switch decisions,
//     thrown away per frame;
//   - the channel handoff costs two goroutine wakeups and a response
//     allocation per frame.
//
// A FrameServer therefore runs in the caller's goroutine and goes
// straight to the looping algorithm, reusing one States buffer, one
// setup scratch, and one recorder mask across calls — the steady-state
// frame costs zero allocations. The one repeat that does happen in
// practice (a single hot flow producing the same completed matching
// frame after frame) is caught by an O(N) last-destination memo instead
// of the cache.
//
// A FrameServer belongs to one goroutine; create one per serving
// goroutine via NewFrameServer. Concurrent FrameServers over the same
// engine are safe — they share only the network wiring (read-only), the
// metrics atomics, and the recorder (internally locked).
type FrameServer[T any] struct {
	e        *Engine[T]
	st       core.States
	sc       *core.SetupScratch
	mask     []uint64
	paths    *netsim.Paths
	sh       *netsim.RecorderShard
	last     perm.Perm // previously served dest; valid when haveLast
	haveLast bool
}

// NewFrameServer builds a frame-serving context over e for one
// goroutine's exclusive use.
func (e *Engine[T]) NewFrameServer() *FrameServer[T] {
	fs := &FrameServer[T]{
		e:     e,
		st:    e.net.NewStates(),
		sc:    core.NewSetupScratch(e.net),
		sh:    e.rec.Shard(), // nil (and inert) when accounting is off
		paths: e.rec.NewPaths(),
		last:  make(perm.Perm, e.net.N()),
	}
	if words := e.rec.MaskWords(); words > 0 {
		fs.mask = make([]uint64, words)
	}
	return fs
}

// Serve routes one frame synchronously: dest is the frame's full
// permutation (a completed matching — valid by construction, like every
// Complete output), and real lists the input terminals carrying real
// packets. Serve computes the switch setting with the looping
// algorithm, then walks each real packet's path gate by gate and
// verifies it exits at dest[src] — the output-port tag check frames
// carry — before reporting success. With a flight recorder attached the
// walk doubles as traversal accounting: it marks each packet's path in
// per-stage bit words, and a verified frame adds those words and the
// setting's flips to the recorder in one call. The frame's filler
// assignments pin switches but are neither walked nor verified, and a
// frame that fails verification records nothing.
func (fs *FrameServer[T]) Serve(dest perm.Perm, real []int) error {
	e := fs.e
	if len(dest) != e.net.N() {
		e.met.errors.Add(1)
		return fmt.Errorf("engine: frame size %d does not match N=%d", len(dest), e.net.N())
	}
	t0 := time.Now()
	if !(fs.haveLast && fs.last.Equal(dest)) {
		e.net.SetupInto(dest, fs.st, fs.sc)
		copy(fs.last, dest)
		fs.haveLast = true
	}
	e.met.Plan.Observe(time.Since(t0))

	// Walk each real packet through the computed setting and check its
	// exit port. This is a gate-level verification: a wrong switch state
	// anywhere on the path surfaces as a misdelivered tag here.
	t1 := time.Now()
	stages := e.net.Stages()
	fs.paths.Reset()
	for _, src := range real {
		y := src
		for s := 0; s < stages; s++ {
			sw := y >> 1
			fs.paths.Mark(s, sw)
			out := 2 * sw
			if crossed := fs.st[s][sw]; crossed != (y&1 == 1) {
				out++ // straight keeps the line parity; crossed swaps it
			}
			if s < stages-1 {
				y = e.net.Link(s, out)
			} else {
				y = out
			}
		}
		if y != dest[src] {
			e.met.errors.Add(1)
			return fmt.Errorf("engine: frame delivered input %d to port %d, want %d", src, y, dest[src])
		}
	}
	e.met.Apply.Observe(time.Since(t1))
	if fs.sh != nil {
		fs.sh.RecordFrame(e.rec.PackStatesInto(fs.st, fs.mask), fs.paths)
	}
	e.met.frames.Add(1)
	return nil
}
