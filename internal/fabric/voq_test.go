package fabric

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// drainOne extracts one frame from the shard, or nil when it is empty.
func drainOne(t *testing.T, v *voqShard[int]) *frame[int] {
	t.Helper()
	fr := newFrame[int](v.n)
	if !v.buildFrame(fr) {
		return nil
	}
	return fr
}

// footprint counts the rows a shard has installed, unicast and
// multicast, and the arena slots they hold. Producers must be
// quiescent.
func (v *voqShard[T]) footprint() (rows, slots int) {
	r, s := rowFootprint(v.rows)
	mr, ms := rowFootprint(v.mrows)
	return r + mr, s + ms
}

func rowFootprint[E any](rows []atomic.Pointer[voqRow[E]]) (n, slots int) {
	for i := range rows {
		if r := rows[i].Load(); r != nil {
			n++
			slots += cap(r.slots)
		}
	}
	return n, slots
}

// freeLen walks r's free list and returns its length, or -1 when the
// list leaves the used slots or visits one twice. Producers must be
// quiescent.
func (r *voqRow[E]) freeLen() int {
	seen := make([]bool, len(r.slots))
	n := 0
	for i := r.free; i != -1; i = r.next[i] {
		if i < 0 || int(i) >= len(r.slots) || seen[i] {
			return -1
		}
		seen[i] = true
		n++
	}
	return n
}

// TestVOQRowArena drives one row's two flows through every arena
// doubling (2→4→…→64), freeing half the arena at each size and
// refilling it before the next doubling, so the flows' packets are
// scattered through reused slots when the arena grows. FIFO order per
// flow, zeroed slots behind the consumer, free-list reuse (the arena
// grows only when every slot holds a packet) and refusal exactly at the
// per-flow bound must hold throughout.
func TestVOQRowArena(t *testing.T) {
	const bound = 64
	var p atomic.Pointer[voqRow[int]]
	r := loadRow(&p, 2)
	if r.slots != nil || r.free != -1 || len(r.flows) != 2 {
		t.Fatalf("a fresh row must hold two empty flows and no slots: %+v", r)
	}
	var pushed, popped [2]int
	queued, peak := 0, 0
	push := func(f int) {
		t.Helper()
		if !r.push(f, voqSlot[int]{payload: pushed[f], enq: int64(f)}, bound) {
			t.Fatalf("flow %d refused packet %d at occupancy %d, below the bound", f, pushed[f], r.flows[f].count.Load())
		}
		pushed[f]++
		queued++
		peak = max(peak, queued)
	}
	pop := func(f int) {
		t.Helper()
		i := r.flows[f].head
		s, ok := r.pop(f)
		if !ok {
			t.Fatalf("pop of flow %d found it empty", f)
		}
		if s.payload != popped[f] || s.enq != int64(f) {
			t.Fatalf("flow %d popped %d (enq %d), want %d: FIFO broken", f, s.payload, s.enq, popped[f])
		}
		if r.slots[i] != (voqSlot[int]{}) || r.free != i {
			t.Fatalf("slot %d not zeroed and freed after pop: %+v, free list at %d", i, r.slots[i], r.free)
		}
		popped[f]++
		queued--
	}
	arena := func(what string) {
		t.Helper()
		if len(r.slots) != peak || cap(r.slots) != ringDepth(peak) || len(r.next) != len(r.slots) || cap(r.next) != cap(r.slots) {
			t.Fatalf("%s: %d/%d slots used, %d/%d links; want %d used of %d", what,
				len(r.slots), cap(r.slots), len(r.next), cap(r.next), peak, ringDepth(peak))
		}
	}
	for size := 2; size <= bound; size *= 2 {
		for queued < size {
			push(queued % 2)
		}
		arena("full")
		for i := 0; i < size/2; i++ {
			pop(i % 2)
		}
		for queued < size {
			push((queued + 1) % 2)
		}
		arena("refilled from the free list")
	}
	// Refusal at the bound: flow 0 fills to exactly bound packets and
	// refuses the next; flow 1 shares the arena but not the bound.
	for r.flows[1].count.Load() > 0 {
		pop(1)
	}
	for r.flows[0].count.Load() < bound {
		push(0)
	}
	if r.push(0, voqSlot[int]{payload: -1}, bound) {
		t.Fatalf("flow 0 accepted a packet beyond its bound of %d", bound)
	}
	push(1)
	arena("one flow at its bound")
	for _, f := range []int{1, 0} {
		for r.flows[f].count.Load() > 0 {
			pop(f)
		}
		if _, ok := r.pop(f); ok {
			t.Fatalf("pop from empty flow %d succeeded", f)
		}
	}
	if pushed != popped {
		t.Fatalf("pushed %v packets but popped %v", pushed, popped)
	}
	if got := r.freeLen(); got != len(r.slots) {
		t.Fatalf("drained row has %d of its %d used slots on the free list", got, len(r.slots))
	}
	push(1)
	pop(1)
	arena("reused after the drain")
}

// TestVOQMemoryBill pins what ingress costs at T=int: a slot holds
// only what its flow does not imply (payload, trace, enqueue time),
// each slot has one 4-B link in its row, and a flow is a 12-B entry in
// its input's row. A field added to any of them fails here instead of
// quietly raising resident memory.
func TestVOQMemoryBill(t *testing.T) {
	var r voqRow[int]
	slot, link, flow := unsafe.Sizeof(voqSlot[int]{}), unsafe.Sizeof(r.next[0]), unsafe.Sizeof(r.flows[0])
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"unicast slot voqSlot[int]", slot, 24},
		{"multicast slot voqSlot[mpayload[int]]", unsafe.Sizeof(voqSlot[mpayload[int]]{}), 48},
		{"slot link", link, 4},
		{"flow entry voqFlow", flow, 12},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d: a queued packet now costs %d B of arena and an input's row %d B per output",
				c.what, c.got, c.want, slot+link, flow)
		}
	}
}

// TestVOQFootprint pins ingress memory to queued packets rather than
// to flows touched: a fabric installs no row before its first packet
// (so route-only traffic never pays for one), and one packet on each
// of the N² flows leaves at most N rows per shard, each arena sized by
// its row's peak queued packets and every used slot back on its free
// list once drained.
func TestVOQFootprint(t *testing.T) {
	idle, err := New[int](Config{LogN: 10, Planes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range idle.shards {
		if rows, slots := sh.footprint(); rows != 0 || slots != 0 {
			t.Errorf("idle shard %d holds %d rows, %d slots", i, rows, slots)
		}
	}
	idle.Close()

	const n = 256
	f, err := New[int](Config{LogN: 8, Planes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if err := f.Send(Packet[int]{Src: src, Dst: dst}); err != nil {
				t.Fatalf("send %d→%d: %v", src, dst, err)
			}
		}
	}
	f.Close()
	if s := f.Stats(); s.Delivered != n*n || s.Lost != 0 {
		t.Fatalf("delivered %d, lost %d of %d packets", s.Delivered, s.Lost, n*n)
	}
	for i, sh := range f.shards {
		counts := sh.snapshot()
		rows := 0
		for in := range sh.rows {
			r := sh.rows[in].Load()
			if r == nil {
				continue
			}
			rows++
			// The arena's used slots are the row's peak queued packets,
			// which exceeds the input's high-water mark by at most one:
			// the one sender's packet sits in the arena before the
			// occupied counter counts it.
			peak := len(r.slots)
			if len(r.flows) != n || peak < 1 || int64(peak) > counts[in].MaxDepth+1 {
				t.Fatalf("shard %d input %d: %d flows, %d slots used at a high-water mark of %d",
					i, in, len(r.flows), peak, counts[in].MaxDepth)
			}
			if cap(r.slots) != ringDepth(peak) {
				t.Fatalf("shard %d input %d: arena of %d slots for a peak of %d, want %d",
					i, in, cap(r.slots), peak, ringDepth(peak))
			}
			if got := r.freeLen(); got != peak {
				t.Fatalf("shard %d input %d: %d of %d used slots on the free list after the drain", i, in, got, peak)
			}
		}
		if rows > n {
			t.Fatalf("shard %d installed %d rows for %d inputs", i, rows, n)
		}
		if mrows, _ := rowFootprint(sh.mrows); mrows != 0 {
			t.Fatalf("unicast traffic installed %d multicast rows in shard %d", mrows, i)
		}
	}
}

// TestVOQLiveBytes holds the heap an ingress keeps after uniform
// traffic has drained: 1,000 batches of 256 uniform packets at N=256
// over two planes touch nearly all of the 65,536 flows, and once drained
// the fabric keeps at most one row of N flow entries and one arena per
// (shard, input), not a queue per flow it has seen.
func TestVOQLiveBytes(t *testing.T) {
	const (
		n       = 256
		batches = 1000
	)
	var delivered atomic.Int64
	progress := make(chan struct{}, 1)
	f, err := NewBatched[int](Config{LogN: 8, Planes: 2}, func(_ int, pkts []Packet[int]) {
		delivered.Add(int64(len(pkts)))
		select {
		case progress <- struct{}{}:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	rng := rand.New(rand.NewSource(1))
	sent := int64(0)
	for b := 0; b < batches; b++ {
		for k := 0; k < n; k++ {
			if err := f.Send(Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n)}); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			sent++
		}
		for delivered.Load() < sent {
			<-progress
		}
	}
	live := int64(heap()) - int64(base)
	runtime.KeepAlive(f)
	if limit := int64(2500 << 10); live > limit {
		t.Fatalf("%d drained uniform packets left the fabric %d B more heap than fresh, limit %d B", sent, live, limit)
	}
	t.Logf("%d drained uniform packets: live heap rose %d B", sent, live)
}

// TestBuildFrameConflictFree fills a shard with random traffic and
// checks every extracted frame is a conflict-free matching: at most one
// packet per input and per output, dest consistent with the packets.
func TestBuildFrameConflictFree(t *testing.T) {
	const n = 16
	v := newVOQShard[int](n, 8, nil)
	rng := rand.New(rand.NewSource(2))
	queued := 0
	for i := 0; i < 300; i++ {
		p := Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: i}
		if v.enqueue(p, DropNew) == nil {
			queued++
		}
	}
	drained := 0
	for {
		fr := drainOne(t, v)
		if fr == nil {
			break
		}
		if err := fr.dest.Validate(); err != nil {
			t.Fatalf("frame dest is not a permutation: %v", err)
		}
		seenIn := make(map[int]bool)
		seenOut := make(map[int]bool)
		for k, pkt := range fr.pkts {
			if seenIn[pkt.Src] || seenOut[pkt.Dst] {
				t.Fatalf("frame reuses input %d or output %d", pkt.Src, pkt.Dst)
			}
			seenIn[pkt.Src] = true
			seenOut[pkt.Dst] = true
			if fr.srcs[k] != pkt.Src || fr.dsts[k] != pkt.Dst {
				t.Fatal("frame coordinate slices disagree with the packets")
			}
			if fr.dest[pkt.Src] != pkt.Dst {
				t.Fatalf("dest[%d]=%d but packet wants %d", pkt.Src, fr.dest[pkt.Src], pkt.Dst)
			}
		}
		drained += len(fr.pkts)
	}
	if drained != queued {
		t.Fatalf("drained %d of %d queued packets", drained, queued)
	}
	if occ := v.occupancy(); occ != 0 {
		t.Fatalf("VOQs should be empty, occupancy %d", occ)
	}
}

// TestVOQTailDrop fills one queue to its bound and checks the drop
// accounting, and that the input's one row holds only the slots its
// queued packets need.
func TestVOQTailDrop(t *testing.T) {
	for _, depth := range []int{2, 64} {
		v := newVOQShard[int](4, depth, nil)
		p := Packet[int]{Src: 1, Dst: 3}
		for i := 0; i < depth; i++ {
			if err := v.enqueue(p, DropNew); err != nil {
				t.Fatalf("depth %d: enqueue %d: %v", depth, i, err)
			}
		}
		if err := v.enqueue(p, DropNew); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("depth %d: enqueue past the bound should tail-drop, got %v", depth, err)
		}
		// A different output from the same input still has room.
		if err := v.enqueue(Packet[int]{Src: 1, Dst: 0}, DropNew); err != nil {
			t.Fatalf("depth %d: other VOQ of the same input must be independent: %v", depth, err)
		}
		want := int64(depth + 1)
		s := v.snapshot()
		if s[1].Enqueued != want || s[1].Dropped != 1 || s[1].Occupied != want || s[1].MaxDepth != want {
			t.Fatalf("depth %d: input 1 counters wrong: %+v", depth, s[1])
		}
		// Both flows share input 1's row; its arena holds the depth+1
		// queued packets, rounded up to a power of two.
		if rows, slots := v.footprint(); rows != 1 || slots != ringDepth(depth+1) {
			t.Fatalf("depth %d: %d rows, %d slots; want 1, %d", depth, rows, slots, ringDepth(depth+1))
		}
	}
}

// TestVOQRoundRobinRotates checks the scheduler's pointers rotate: two
// inputs contending for one output must split wins evenly across
// frames.
func TestVOQRoundRobinRotates(t *testing.T) {
	const n = 4
	v := newVOQShard[int](n, 8, nil)
	for i := 0; i < 4; i++ {
		v.enqueue(Packet[int]{Src: 0, Dst: 2, Payload: 100 + i}, DropNew)
		v.enqueue(Packet[int]{Src: 1, Dst: 2, Payload: 200 + i}, DropNew)
	}
	winners := make(map[int]int)
	for {
		fr := drainOne(t, v)
		if fr == nil {
			break
		}
		if len(fr.pkts) != 1 {
			t.Fatalf("one contended output admits one packet per frame, got %d", len(fr.pkts))
		}
		winners[fr.pkts[0].Src]++
	}
	if winners[0] != 4 || winners[1] != 4 {
		t.Fatalf("rotating pointer should split wins 4/4, got %v", winners)
	}
}

// TestVOQSealRefusesSenders checks the close protocol's admission gate:
// after seal, enqueue returns ErrClosed and the shard still drains what
// it had accepted.
func TestVOQSealRefusesSenders(t *testing.T) {
	v := newVOQShard[int](4, 8, nil)
	if err := v.enqueue(Packet[int]{Src: 0, Dst: 1}, DropNew); err != nil {
		t.Fatalf("enqueue before seal: %v", err)
	}
	v.seal()
	if err := v.enqueue(Packet[int]{Src: 2, Dst: 3}, DropNew); err != ErrClosed {
		t.Fatalf("enqueue after seal should return ErrClosed, got %v", err)
	}
	fr := drainOne(t, v)
	if fr == nil || len(fr.pkts) != 1 || fr.pkts[0].Src != 0 || fr.pkts[0].Dst != 1 {
		t.Fatalf("sealed shard must still drain its accepted packet, got %+v", fr)
	}
	if drainOne(t, v) != nil {
		t.Fatal("shard should be empty after the drain")
	}
}

// TestVOQMcastBlockedSender parks a Block sender on a full multicast
// queue and checks both ways out: the scheduler freeing a slot admits
// its packet, and seal releases the next parked sender with ErrClosed.
func TestVOQMcastBlockedSender(t *testing.T) {
	v := newVOQShard[int](4, 2, nil)
	send := func(id int) error {
		return v.enqueueMcast(0, voqSlot[mpayload[int]]{payload: mpayload[int]{dsts: []int{1, 2}, data: id}}, Block)
	}
	park := func(id int) <-chan error {
		res := make(chan error, 1)
		go func() { res <- send(id) }()
		for v.waiters.Load() == 0 {
			runtime.Gosched()
		}
		return res
	}
	for id := 0; id < 2; id++ {
		if err := send(id); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
	}
	res := park(2)
	fr := newFrame[int](v.n)
	if !v.buildFrame(fr) || fr.mpkts != 1 || fr.pkts[0].Payload != 0 {
		t.Fatalf("first frame should carry multicast packet 0, got %+v", fr.pkts)
	}
	if err := <-res; err != nil {
		t.Fatalf("a freed slot should admit the parked sender, got %v", err)
	}
	res = park(3)
	v.seal()
	if err := <-res; !errors.Is(err, ErrClosed) {
		t.Fatalf("seal should release the parked sender with ErrClosed, got %v", err)
	}
	for _, want := range []int{1, 2} {
		if !v.buildFrame(fr) || fr.pkts[0].Payload != want {
			t.Fatalf("drain: want multicast packet %d, got %+v", want, fr.pkts)
		}
	}
	if v.buildFrame(fr) {
		t.Fatal("queue should be empty after the drain")
	}
}
