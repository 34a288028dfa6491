package fabric

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DropPolicy selects what Send does when a packet's virtual output
// queue is full.
type DropPolicy int

const (
	// DropNew rejects the incoming packet immediately (tail drop). The
	// caller sees ErrBackpressure and the packet is never accepted, so
	// the fabric's exactly-once delivery guarantee is unaffected.
	DropNew DropPolicy = iota
	// Block makes Send wait until the queue has room (or the fabric
	// closes), pushing backpressure into the caller.
	Block
)

func (p DropPolicy) String() string {
	switch p {
	case DropNew:
		return "drop-new"
	case Block:
		return "block"
	}
	return "unknown"
}

// voqSlot is one queued packet. It holds only what its flow does not
// imply: the flow's (input, output) pair is the packet's (Src, Dst),
// which the scheduler rebuilds from the pair it popped. enq is the
// enqueue wall clock in UnixNano (an int64, not a time.Time). Slots,
// their links and the flow entries are the fabric's memory bill, which
// TestVOQMemoryBill pins.
type voqSlot[T any] struct {
	payload T
	tr      *obs.Trace
	enq     int64
}

// voqFlow is one (input, output) virtual output queue's entry in its
// input's row: the arena indices of its oldest and newest slots, and
// its occupancy. count changes only under the row's mutex but is read
// without it, so the consumer can skip an empty flow lock-free. head
// and tail mean nothing while count is zero.
type voqFlow struct {
	head, tail int32
	count      atomic.Int32
}

// voqRow is one input's ingress within a shard: a dense table of its
// flows and one slot arena they share. Each flow is a bounded FIFO
// threaded through the arena by next links; a slot a pop frees goes on
// the row's free list. The arena starts at 2 slots and doubles when
// every slot is in use. It never shrinks, so it holds the input's peak
// queued packets, not one buffer per flow the input has seen. One mutex
// serves the input's senders (many producers) and its shard's
// scheduler (the single consumer).
type voqRow[T any] struct {
	mu    sync.Mutex
	free  int32        // first slot on the free list, -1 when it is empty
	flows []voqFlow    // one per output; the multicast row has one
	slots []voqSlot[T] // the arena: len counts the slots ever used, cap is its size
	next  []int32      // next[i] follows slot i in its flow or on the free list
}

// ringDepth rounds depth up to the power of two a flow may hold,
// minimum 2.
func ringDepth(depth int) int {
	size := 2
	for size < depth {
		size <<= 1
	}
	return size
}

// loadRow returns *p, installing a fresh row of the given number of
// flows first when it is nil. CAS losers discard their allocation, so
// every pointer settles on one row.
func loadRow[T any](p *atomic.Pointer[voqRow[T]], flows int) *voqRow[T] {
	if r := p.Load(); r != nil {
		return r
	}
	if r := (&voqRow[T]{free: -1, flows: make([]voqFlow, flows)}); p.CompareAndSwap(nil, r) {
		return r
	}
	return p.Load()
}

// push appends s to flow f; false means the flow already holds bound
// packets, a power of two from ringDepth.
func (r *voqRow[T]) push(f int, s voqSlot[T], bound int) bool {
	fl := &r.flows[f]
	r.mu.Lock()
	n := fl.count.Load()
	if int(n) == bound {
		r.mu.Unlock()
		return false
	}
	i := r.alloc()
	r.slots[i] = s
	if n == 0 {
		fl.head = i
	} else {
		r.next[fl.tail] = i
	}
	fl.tail = i
	fl.count.Add(1)
	r.mu.Unlock()
	return true
}

// alloc takes the first slot on the free list, or else the first
// never-used one, doubling the arena when every slot is in use. A
// never-used slot is taken only while every used one holds a packet,
// so len(r.slots) is the row's peak occupancy. Caller holds mu.
func (r *voqRow[T]) alloc() int32 {
	if i := r.free; i >= 0 {
		r.free = r.next[i]
		return i
	}
	i := len(r.slots)
	if i == cap(r.slots) {
		size := max(2, 2*i)
		slots := make([]voqSlot[T], i, size)
		copy(slots, r.slots)
		next := make([]int32, i, size)
		copy(next, r.next)
		r.slots, r.next = slots, next
	}
	r.slots, r.next = r.slots[:i+1], r.next[:i+1]
	return int32(i)
}

// pop takes flow f's oldest slot and frees it. Single consumer only.
func (r *voqRow[T]) pop(f int) (voqSlot[T], bool) {
	fl := &r.flows[f]
	if fl.count.Load() == 0 {
		return voqSlot[T]{}, false
	}
	r.mu.Lock()
	i := fl.head
	s := r.slots[i]
	r.slots[i] = voqSlot[T]{} // release payload and trace references
	fl.head = r.next[i]
	r.next[i], r.free = r.free, i
	fl.count.Add(-1)
	r.mu.Unlock()
	return s, true
}

// peek exposes flow f's oldest payload without consuming it. Single
// consumer only; the returned pointer is valid until the next pop of
// the flow (producers write only free slots, and a concurrent grow
// copies the slot into a new arena but never rewrites the old one).
func (r *voqRow[T]) peek(f int) (*T, bool) {
	fl := &r.flows[f]
	if fl.count.Load() == 0 {
		return nil, false
	}
	r.mu.Lock()
	p := &r.slots[fl.head].payload
	r.mu.Unlock()
	return p, true
}

// voqInputCounters is the per-input slice of VOQ accounting, exported
// through VOQSnapshot. All fields are atomics: producers bump them
// outside any lock.
type voqInputCounters struct {
	enqueued atomic.Int64 // packets accepted into this input's queues
	dropped  atomic.Int64 // packets rejected by tail drop
	occupied atomic.Int64 // packets currently queued
	maxDepth atomic.Int64 // high-water mark of occupied
}

// voqShard is one switching plane's slice of the fabric ingress: one
// row of per-flow queues per input, a per-input nonempty bitmap, and
// the iSLIP-style rotating pointers of its scheduler. Flow hashing
// assigns every (src, dst) flow to exactly one shard, so across shards
// only N² flows are ever in use. Memory follows traffic: an input's
// row is installed by CAS on its first packet, and its arena grows
// with the input's occupancy. An idle shard holds one nil pointer per
// input.
//
// Producers (Send) take no shard-wide lock: row push under the input's
// own mutex, counter adds, bitmap set. The single consumer — the
// shard's scheduler goroutine — owns pop, bitmap clearing, and the
// rotating pointers. The Block-policy parking lot is paid only by
// senders that found their queue full.
type voqShard[T any] struct {
	n     int
	depth int // per-flow bound (power of two), shared by every queue
	words int // bitmap words per input
	met   *metrics

	rows     []atomic.Pointer[voqRow[T]] // rows[in]: N flows, installed on the input's first packet
	nonempty []atomic.Uint64             // nonempty[in*words+out/64]
	counts   []voqInputCounters          // per input

	// Multicast ingress: one lazily installed one-flow row per input (a
	// fan-out packet targets many outputs, so the per-output flows do
	// not apply; one flow per input preserves per-input FIFO order among
	// its multicast packets). mcastQueued counts packets across them.
	mrows       []atomic.Pointer[voqRow[mpayload[T]]]
	mcastQueued atomic.Int64

	// Close protocol: inflight counts senders between admission check
	// and row publish; seal flips sealed, then waits for inflight to
	// reach zero, after which a final drain observes every accepted
	// packet.
	sealed   atomic.Bool
	inflight atomic.Int64

	// notify wakes the scheduler when work arrives; capacity 1 so
	// enqueues never block on it.
	notify chan struct{}

	// Block-policy parking lot. waiters is read lock-free by the
	// consumer to skip the lock when nobody is parked.
	blockMu sync.Mutex
	space   *sync.Cond
	waiters atomic.Int64

	// Consumer-private scheduler state: the iSLIP rotating pointers and
	// matching scratch. Owned by the scheduler goroutine; no
	// synchronization.
	rrIn    int
	rrOut   []int
	partial []int
	taken   []bool
}

func newVOQShard[T any](n, depth int, met *metrics) *voqShard[T] {
	v := &voqShard[T]{
		n:       n,
		depth:   ringDepth(depth),
		words:   (n + 63) / 64,
		met:     met,
		counts:  make([]voqInputCounters, n),
		notify:  make(chan struct{}, 1),
		rrOut:   make([]int, n),
		partial: make([]int, n),
		taken:   make([]bool, n),
	}
	v.rows = make([]atomic.Pointer[voqRow[T]], n)
	v.mrows = make([]atomic.Pointer[voqRow[mpayload[T]]], n)
	v.nonempty = make([]atomic.Uint64, n*v.words)
	v.space = sync.NewCond(&v.blockMu)
	return v
}

// setBit / clearBit are CAS loops because the go.mod language version
// predates the atomic Or/And methods.
func orBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func andNotBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// enqueue publishes p into its VOQ, honouring the drop policy.
func (v *voqShard[T]) enqueue(p Packet[T], policy DropPolicy) error {
	v.inflight.Add(1)
	defer v.inflight.Add(-1)
	if v.sealed.Load() {
		return ErrClosed
	}
	if err := admit(v, loadRow(&v.rows[p.Src], v.n), p.Dst, p.Src, voqSlot[T]{payload: p.Payload, tr: p.Trace}, policy); err != nil {
		return err
	}
	c := &v.counts[p.Src]
	c.enqueued.Add(1)
	occ := c.occupied.Add(1)
	for {
		m := c.maxDepth.Load()
		if occ <= m || c.maxDepth.CompareAndSwap(m, occ) {
			break
		}
	}
	orBit(&v.nonempty[p.Src*v.words+p.Dst>>6], 1<<uint(p.Dst&63))
	select {
	case v.notify <- struct{}{}:
	default:
	}
	return nil
}

// admit pushes s, input src's packet, onto flow f of row r, stamping
// its enqueue time and honouring the drop policy: DropNew tail-drops
// when the flow is full, Block parks the sender until the scheduler
// frees a slot or the shard seals. The waiter count is raised before
// each retry so the consumer's post-pop check cannot miss a sender that
// observed the flow full just before the pop freed a slot. It serves
// unicast and multicast rows alike, whose element types differ.
func admit[T, E any](v *voqShard[T], r *voqRow[E], f, src int, s voqSlot[E], policy DropPolicy) error {
	s.enq = time.Now().UnixNano()
	if r.push(f, s, v.depth) {
		return nil
	}
	if policy == DropNew {
		v.counts[src].dropped.Add(1)
		return ErrBackpressure
	}
	t0 := time.Now()
	v.blockMu.Lock()
	defer v.blockMu.Unlock()
	for {
		if v.sealed.Load() {
			return ErrClosed
		}
		v.waiters.Add(1)
		s.enq = time.Now().UnixNano()
		if r.push(f, s, v.depth) {
			v.waiters.Add(-1)
			break
		}
		v.space.Wait()
		v.waiters.Add(-1)
	}
	if v.met != nil {
		v.met.Stages.EnqueueWait.ObserveSince(t0)
	}
	return nil
}

// signalSpace wakes parked senders after the scheduler freed queue
// slots. The lock is taken only when somebody is actually parked.
func (v *voqShard[T]) signalSpace() {
	if v.waiters.Load() == 0 {
		return
	}
	v.blockMu.Lock()
	v.space.Broadcast()
	v.blockMu.Unlock()
}

// seal stops admissions: senders racing the seal either complete their
// publish (and are observed by the final drain) or see ErrClosed, and
// parked senders are woken to see it too. On return every accepted
// packet is in its row.
func (v *voqShard[T]) seal() {
	v.blockMu.Lock()
	v.sealed.Store(true)
	v.space.Broadcast()
	v.blockMu.Unlock()
	for v.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// nextSet returns the smallest bit index in [from, hi) set in the
// input's bitmap slice bm, or -1.
func nextSet(bm []atomic.Uint64, from, hi int) int {
	if from >= hi {
		return -1
	}
	w := from >> 6
	word := bm[w].Load() & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= hi {
				return -1
			}
			return i
		}
		w++
		if w >= len(bm) || w<<6 >= hi {
			return -1
		}
		word = bm[w].Load()
	}
}

// clearIfEmpty drops the (in, out) nonempty bit when the flow has
// drained, then re-checks: a producer that published between the
// emptiness check and the clear re-raises its bit after the push, but a
// producer that published *before* the clear would be lost without the
// re-check.
func (v *voqShard[T]) clearIfEmpty(in, out int, r *voqRow[T]) {
	w := &v.nonempty[in*v.words+out>>6]
	bit := uint64(1) << uint(out&63)
	andNotBit(w, bit)
	if r.flows[out].count.Load() > 0 {
		orBit(w, bit)
	}
}

// buildFrame extracts a conflict-free partial matching — at most one
// packet per input and per output — into fr and completes it to a full
// permutation. It reports false when every queue is empty. Inputs are
// scanned from a rotating start, and each input scans its outputs from
// its own rotating pointer, so repeated frames cycle through contending
// pairs instead of always favouring low indices. Consumer only.
func (v *voqShard[T]) buildFrame(fr *frame[T]) bool {
	tick := time.Now()
	tickNano := tick.UnixNano()
	n := v.n
	partial, taken := v.partial, v.taken
	for i := range partial {
		partial[i] = Idle
	}
	for i := range taken {
		taken[i] = false
	}
	fr.reset()
	// Multicast heads first: a fan-out packet needs its input and every
	// one of its destinations free, so it gets first pick of the outputs
	// before the unicast matching fragments them.
	if v.mcastQueued.Load() > 0 {
		v.claimMulticast(fr, partial, taken, tickNano)
	}
	for k := 0; k < n; k++ {
		in := (v.rrIn + k) % n
		if partial[in] != Idle {
			continue // input claimed by a multicast head
		}
		if v.counts[in].occupied.Load() == 0 {
			continue
		}
		row := v.rows[in].Load() // installed before the input's first push
		bm := v.nonempty[in*v.words : (in+1)*v.words]
		// Scan candidate outputs from the rotating pointer, wrapping
		// once: non-empty per the bitmap and not yet claimed.
		start := v.rrOut[in]
		matched := false
		for pass := 0; pass < 2 && !matched; pass++ {
			lo, hi := start, n
			if pass == 1 {
				lo, hi = 0, start
			}
			for j := nextSet(bm, lo, hi); j != -1; j = nextSet(bm, j+1, hi) {
				if taken[j] {
					continue
				}
				s, ok := row.pop(j)
				if !ok {
					v.clearIfEmpty(in, j, row)
					continue
				}
				if row.flows[j].count.Load() == 0 {
					v.clearIfEmpty(in, j, row)
				}
				v.counts[in].occupied.Add(-1)
				wait := time.Duration(tickNano - s.enq)
				if v.met != nil {
					v.met.Stages.VOQWait.Observe(wait)
				}
				s.tr.Fold("voq_wait", time.Unix(0, s.enq), wait, "")
				partial[in] = j
				taken[j] = true
				fr.pkts = append(fr.pkts, Packet[T]{Src: in, Dst: j, Payload: s.payload, Trace: s.tr})
				fr.srcs = append(fr.srcs, in)
				fr.dsts = append(fr.dsts, j)
				v.rrOut[in] = (j + 1) % n
				matched = true
				break
			}
		}
	}
	if len(fr.pkts) == 0 {
		return false
	}
	v.rrIn = (v.rrIn + 1) % n
	v.signalSpace()
	if v.met != nil {
		v.met.Stages.Match.ObserveSince(tick)
	}
	if fr.mcast {
		// A frame with fan-out is a mapping, not a permutation: rebuild
		// the output-major view from the claimed pairs. Unassigned
		// outputs stay Idle — the copy-network compiler parks them.
		for i := range fr.outSrc {
			fr.outSrc[i] = Idle
		}
		for k, d := range fr.dsts {
			fr.outSrc[d] = fr.srcs[k]
		}
		return true
	}
	completeInto(partial, fr.dest, taken)
	return true
}

// occupancy returns the shard's total queued packets, multicast
// included.
func (v *voqShard[T]) occupancy() int64 {
	total := v.mcastQueued.Load()
	for i := range v.counts {
		total += v.counts[i].occupied.Load()
	}
	return total
}

// snapshot copies the per-input counters. enqueue bumps enqueued
// before occupied, so loading occupied first keeps Occupied <=
// Enqueued in every copy while traffic runs.
func (v *voqShard[T]) snapshot() []VOQInputCounters {
	out := make([]VOQInputCounters, v.n)
	for i := range v.counts {
		c := &v.counts[i]
		occupied := c.occupied.Load()
		out[i] = VOQInputCounters{
			Enqueued: c.enqueued.Load(),
			Dropped:  c.dropped.Load(),
			Occupied: occupied,
			MaxDepth: c.maxDepth.Load(),
		}
	}
	return out
}
