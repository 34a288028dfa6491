package fabric

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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

// voqSlot is one queue slot. enq is the enqueue wall clock in UnixNano
// (an int64, not a time.Time, to keep slots small: queues exist per
// (input, output) flow and their footprint is the fabric's memory
// bill).
type voqSlot[T any] struct {
	pkt Packet[T]
	enq int64
}

// voqRing is one (input, output) virtual output queue: a bounded FIFO
// with many producers (senders) and a single consumer (the owning
// shard's scheduler goroutine), guarded by a per-flow mutex. It holds
// no slots until its first push, then starts at 2 and doubles on
// demand up to max, so memory follows the flow's occupancy instead of
// its bound; the buffer never shrinks. Uncontended, a push or pop costs
// the lock's CAS plus the unlock — as many atomic read-modify-writes as
// a lock-free ticket ring — and a flow's producers rarely collide.
// count mirrors the occupancy so size needs no lock.
type voqRing[T any] struct {
	mu    sync.Mutex
	slots []voqSlot[T] // power-of-two length; nil until the first push
	head  int          // slot index of the oldest packet
	max   int          // bound on len(slots)
	count atomic.Int64
}

// ringDepth rounds depth up to the power of two a queue may grow to,
// minimum 2 (its first allocation).
func ringDepth(depth int) int {
	size := 2
	for size < depth {
		size <<= 1
	}
	return size
}

func newVOQRing[T any](depth int) *voqRing[T] {
	return &voqRing[T]{max: ringDepth(depth)}
}

// push appends one packet; false means the queue is at its bound.
func (r *voqRing[T]) push(p Packet[T], enq int64) bool {
	r.mu.Lock()
	n := int(r.count.Load())
	if n == len(r.slots) {
		if n == r.max {
			r.mu.Unlock()
			return false
		}
		r.grow()
	}
	r.slots[(r.head+n)&(len(r.slots)-1)] = voqSlot[T]{pkt: p, enq: enq}
	r.count.Add(1)
	r.mu.Unlock()
	return true
}

// grow doubles a full buffer (or makes the first one), unwrapping it so
// the oldest packet lands at index 0. Caller holds mu.
func (r *voqRing[T]) grow() {
	slots := make([]voqSlot[T], max(2, 2*len(r.slots)))
	n := copy(slots, r.slots[r.head:])
	copy(slots[n:], r.slots[:r.head])
	r.slots, r.head = slots, 0
}

// pop takes the oldest packet; enq is its enqueue UnixNano. Single
// consumer only.
func (r *voqRing[T]) pop() (Packet[T], int64, bool) {
	if r.count.Load() == 0 {
		var zero Packet[T]
		return zero, 0, false
	}
	r.mu.Lock()
	s := &r.slots[r.head]
	p, enq := s.pkt, s.enq
	*s = voqSlot[T]{} // release payload and trace references
	r.head = (r.head + 1) & (len(r.slots) - 1)
	r.count.Add(-1)
	r.mu.Unlock()
	return p, enq, true
}

// size is the occupancy; exact when producers are quiescent.
func (r *voqRing[T]) size() int64 {
	return r.count.Load()
}

// loadOrInit returns *p, installing fresh() first when it is nil. CAS
// losers discard their allocation, so every pointer settles on one
// value.
func loadOrInit[E any](p *atomic.Pointer[E], fresh func() *E) *E {
	if e := p.Load(); e != nil {
		return e
	}
	if e := fresh(); p.CompareAndSwap(nil, e) {
		return e
	}
	return p.Load()
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

// voqRow is one input's slice of a shard's grid: a queue pointer per
// output.
type voqRow[T any] []atomic.Pointer[voqRing[T]]

// voqShard is one switching plane's slice of the fabric ingress: a grid
// of per-flow queues, a per-input nonempty bitmap, and the iSLIP-style
// rotating pointers of its scheduler. Flow hashing assigns every
// (src, dst) flow to exactly one shard, so across shards only N² queues
// are ever in use. Memory follows traffic: an input's row of N queue
// pointers is installed by CAS on its first packet, a flow's queue on
// the flow's first packet, and the queue's slots grow with its
// occupancy. An idle shard holds one nil pointer per input.
//
// Producers (Send) take no shard-wide lock: queue push under the flow's
// own mutex, counter adds, bitmap set. The single consumer — the
// shard's scheduler goroutine — owns pop, bitmap clearing, and the
// rotating pointers. The Block-policy parking lot is paid only by
// senders that found their queue full.
type voqShard[T any] struct {
	n     int
	depth int // per-flow bound (power of two)
	words int // bitmap words per input
	met   *metrics

	rows     []atomic.Pointer[voqRow[T]] // rows[in], allocated on the input's first packet
	nonempty []atomic.Uint64             // nonempty[in*words+out/64]
	counts   []voqInputCounters          // per input

	// Multicast ingress: one lazily allocated ring per input (a fan-out
	// packet targets many outputs, so the per-(input, output) grid does
	// not apply; one ring per input preserves per-input FIFO order among
	// its multicast packets). mcastQueued counts packets across them.
	mrings      []atomic.Pointer[voqRing[mpayload[T]]]
	mcastQueued atomic.Int64

	// Close protocol: inflight counts senders between admission check
	// and ring publish; seal flips sealed, then waits for inflight to
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
	v.mrings = make([]atomic.Pointer[voqRing[mpayload[T]]], n)
	v.nonempty = make([]atomic.Uint64, n*v.words)
	v.space = sync.NewCond(&v.blockMu)
	return v
}

// ring returns the (src, dst) queue, allocating its row and the queue
// itself on first use.
func (v *voqShard[T]) ring(src, dst int) *voqRing[T] {
	row := loadOrInit(&v.rows[src], func() *voqRow[T] {
		r := make(voqRow[T], v.n)
		return &r
	})
	return loadOrInit(&(*row)[dst], func() *voqRing[T] { return newVOQRing[T](v.depth) })
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
	if err := admit(v, v.ring(p.Src, p.Dst), p, policy); err != nil {
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

// admit pushes p into r, honouring the drop policy: DropNew tail-drops
// when r is full, Block parks the sender until the scheduler frees a
// slot or the shard seals. The waiter count is raised before each retry
// so the consumer's post-pop check cannot miss a sender that observed
// the queue full just before the pop freed a slot. It serves unicast
// and multicast queues alike, whose element types differ.
func admit[T, E any](v *voqShard[T], r *voqRing[E], p Packet[E], policy DropPolicy) error {
	if r.push(p, time.Now().UnixNano()) {
		return nil
	}
	if policy == DropNew {
		v.counts[p.Src].dropped.Add(1)
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
		if r.push(p, time.Now().UnixNano()) {
			v.waiters.Add(-1)
			break
		}
		v.space.Wait()
		v.waiters.Add(-1)
	}
	if v.met != nil {
		v.met.EnqueueWait.ObserveSince(t0)
	}
	return nil
}

// signalSpace wakes parked senders after the scheduler freed ring
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
// packet is in its ring.
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

// clearIfEmpty drops the (in, out) nonempty bit when the ring has
// drained, then re-checks: a producer that published between the
// emptiness check and the clear re-raises its bit after the push, but a
// producer that published *before* the clear would be lost without the
// re-check.
func (v *voqShard[T]) clearIfEmpty(in, out int, r *voqRing[T]) {
	w := &v.nonempty[in*v.words+out>>6]
	bit := uint64(1) << uint(out&63)
	andNotBit(w, bit)
	if r.size() > 0 {
		orBit(w, bit)
	}
}

// buildFrame extracts a conflict-free partial matching — at most one
// packet per input and per output — into fr and completes it to a full
// permutation. It reports false when every ring is empty. Inputs are
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
		row := *v.rows[in].Load() // installed before the input's first push
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
				r := row[j].Load()
				if r == nil {
					// A bit with no queue cannot happen (the bit is set
					// after the push); clear defensively.
					andNotBit(&bm[j>>6], 1<<uint(j&63))
					continue
				}
				pkt, enq, ok := r.pop()
				if !ok {
					v.clearIfEmpty(in, j, r)
					continue
				}
				if r.size() == 0 {
					v.clearIfEmpty(in, j, r)
				}
				v.counts[in].occupied.Add(-1)
				wait := time.Duration(tickNano - enq)
				if v.met != nil {
					v.met.VOQWait.Observe(wait)
				}
				pkt.Trace.SpanDur("voq_wait", time.Unix(0, enq), wait, "")
				partial[in] = j
				taken[j] = true
				fr.pkts = append(fr.pkts, pkt)
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
		v.met.Match.ObserveSince(tick)
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
