// Package psetup is a multicore external setup for arbitrary
// permutations: the classic looping algorithm of core.Network.Setup run
// across real cores instead of one. It is a measured comparison point,
// not a serving path: the engine sets up every non-F(n) miss with the
// serial core.Network.SetupInto, because this package bought 1.06× at
// N=4096 (BENCH_setup.json) and lost on the served cold path.
//
// The paper's Section I observation — external setup costs O(N log N)
// serial work while F(n) members self-route in O(log N) gate delays —
// is the latency cliff every non-F(n) cache miss pays at serving time.
// Nassimi & Sahni's parallel-setup work (the paper's citation [7],
// modeled in rounds by internal/parsetup) points at a cure: after the
// outer level's 2-coloring, the two half-size subnetworks of B(n) are
// completely independent, and so are their halves, recursively. The
// recursion tree therefore fans out into 2^l independent blocks at
// level l, and a bounded worker pool can chew the tree concurrently.
//
// A Router drives exactly the recursion of core.Network.Setup, with
// two scheduling changes:
//
//   - fork: when solving a block splits it in two, the upper half is
//     handed to a fresh goroutine if a worker slot is free (a
//     semaphore bounds the pool); otherwise the caller solves both
//     halves itself. Parents join their forked children before
//     returning, so a finished Setup call has no stragglers.
//   - serial cutoff: blocks at or below Config.SerialCutoff lines are
//     solved by the serial recursion (core.Network.SetupBlock) in the
//     worker's own goroutine — small blocks cost less than a goroutine
//     handoff, so the fan-out stops where parallelism stops paying.
//
// Both kernels write the setting as packed words (core's stage-major
// layout, 64 switches a word). A block of 128 lines or more owns whole
// words of every stage it sets, while smaller sibling blocks share
// words, so the cutoff is never below 128 lines: only blocks of at
// least 256 lines fork, their halves write disjoint words, and no two
// goroutines ever write one word.
//
// Every block's emitted switch states depend only on the block-local
// sub-permutation, and the loop resolution itself is deterministic
// (each loop's smallest input goes through the upper subnetwork), so
// the parallel schedule — any worker count, any cutoff — produces
// words bit-identical to core.Network.SetupInto. The differential
// battery in this package's tests and the FuzzParallelSetup target in
// CI hold that equivalence exhaustively at N=8 and statistically
// beyond, and CI repeats the tests under the race detector.
package psetup

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/perm"
)

// DefaultSerialCutoff is the block size (in lines, 2^m) at or below
// which the recursion stops forking and solves the subtree serially.
// A B(256) subtree costs a few microseconds — about the price of a
// goroutine spawn plus scheduling — so splitting smaller blocks loses
// more to overhead than it gains in concurrency.
const DefaultSerialCutoff = 256

// minSerialCutoff is the smallest block, in lines, that owns whole
// words of each stage it sets: 64 switches a stage.
const minSerialCutoff = 128

// Config parameterizes New. The zero value selects a pool of
// GOMAXPROCS workers with the default cutoff.
type Config struct {
	// Workers bounds the number of goroutines one Setup call may have
	// solving blocks concurrently, the caller's own goroutine included.
	// Defaults to runtime.GOMAXPROCS(0). Workers=1 never forks — the
	// parallel code path with a serial schedule.
	Workers int
	// SerialCutoff is the block size (lines) at or below which a
	// subtree is solved serially in one goroutine. Defaults to
	// DefaultSerialCutoff; values below 128 are raised to 128, because
	// smaller blocks share setting words with their siblings.
	SerialCutoff int
}

// Router runs parallel cold setups over one network. It is safe for
// concurrent use: every Setup call draws its working memory from
// internal pools and shares only the immutable wiring.
type Router struct {
	net     *core.Network
	n       int
	workers int
	cutoff  int
	scpool  sync.Pool // *core.SetupScratch, one per active goroutine
	runpool sync.Pool // *runScratch, one per active Setup call
}

// runScratch is the per-call shared memory: the destination buffers of
// every recursion level (sibling blocks write disjoint segments, so
// one array serves all concurrent workers) and the fork semaphore.
type runScratch struct {
	levels [][]int
	sem    chan struct{} // nil when workers == 1: sends never proceed
}

// New builds a Router for net.
func New(net *core.Network, cfg Config) *Router {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SerialCutoff <= 0 {
		cfg.SerialCutoff = DefaultSerialCutoff
	}
	if cfg.SerialCutoff < minSerialCutoff {
		cfg.SerialCutoff = minSerialCutoff
	}
	r := &Router{
		net:     net,
		n:       net.LogN(),
		workers: cfg.Workers,
		cutoff:  cfg.SerialCutoff,
	}
	r.scpool.New = func() any { return core.NewSetupScratch(net) }
	r.runpool.New = func() any {
		rs := &runScratch{levels: make([][]int, r.n)}
		for i := range rs.levels {
			rs.levels[i] = make([]int, net.N())
		}
		if r.workers > 1 {
			rs.sem = make(chan struct{}, r.workers-1)
		}
		return rs
	}
	return r
}

// Network returns the wired network this Router sets up.
func (r *Router) Network() *core.Network { return r.net }

// Setup computes the switch setting realizing d, packed, bit-identical
// to r.Network().SetupInto's words, using up to Config.Workers
// goroutines. Unlike core.Setup it reports invalid input as an error
// instead of panicking — cold-path callers see adversarial
// permutations.
func (r *Router) Setup(d perm.Perm) ([]uint64, error) {
	words := make([]uint64, r.net.Stages()*r.net.StageWords())
	if err := r.SetupInto(d, words); err != nil {
		return nil, err
	}
	return words, nil
}

// SetupInto is Setup writing into caller-owned words (every word is
// overwritten, so a dirty buffer is fine).
func (r *Router) SetupInto(d perm.Perm, words []uint64) error {
	if len(d) != r.net.N() {
		return fmt.Errorf("psetup: permutation length %d != N %d", len(d), r.net.N())
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("psetup: %w", err)
	}
	want := r.net.Stages() * r.net.StageWords()
	if len(words) < want {
		return fmt.Errorf("psetup: setting has %d words, network needs %d", len(words), want)
	}
	// The kernels OR each block's bits into cleared words.
	words = words[:want]
	clear(words)
	run := r.runpool.Get().(*runScratch)
	sc := r.scpool.Get().(*core.SetupScratch)
	// d is only ever read; recursion levels below it live in run.levels.
	r.solve(run, d, 0, 0, r.n, words, sc)
	r.scpool.Put(sc)
	r.runpool.Put(run)
	return nil
}

// solve routes the B(m) block at lines [lo, lo+2^m), stages
// [s0, s0+2m-2], forking the upper half onto the pool when a slot is
// free. It returns only after the block's whole subtree is solved.
func (r *Router) solve(run *runScratch, dests []int, lo, s0, m int, words []uint64, sc *core.SetupScratch) {
	size := 1 << uint(m)
	if size <= r.cutoff {
		r.net.SetupBlock(dests, lo, s0, m, words, sc)
		return
	}
	half := size / 2
	next := run.levels[r.n-m+1]
	upDests := next[lo : lo+half]
	downDests := next[lo+half : lo+size]
	r.net.ColorBlock(dests, lo, s0, m, words, sc, upDests, downDests)

	// Fork the upper half if a pool slot is free; otherwise this
	// goroutine solves both halves. A send on a nil sem never proceeds,
	// so Workers=1 always takes the serial branch.
	var wg sync.WaitGroup
	forked := false
	select {
	case run.sem <- struct{}{}:
		forked = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			csc := r.scpool.Get().(*core.SetupScratch)
			r.solve(run, upDests, lo, s0+1, m-1, words, csc)
			r.scpool.Put(csc)
			<-run.sem
		}()
	default:
	}
	if !forked {
		r.solve(run, upDests, lo, s0+1, m-1, words, sc)
	}
	r.solve(run, downDests, lo+half, s0+1, m-1, words, sc)
	wg.Wait()
}
