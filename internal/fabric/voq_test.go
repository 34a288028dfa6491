package fabric

import (
	"errors"
	"math/rand"
	"runtime"
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

// footprint counts the grid rows, per-flow queues and queue slots a
// shard has allocated. Producers must be quiescent.
func (v *voqShard[T]) footprint() (rows, rings, slots int) {
	for i := range v.rows {
		row := v.rows[i].Load()
		if row == nil {
			continue
		}
		rows++
		for j := range *row {
			if r := (*row)[j].Load(); r != nil {
				rings++
				slots += len(r.slots)
			}
		}
	}
	return rows, rings, slots
}

// TestVOQRingWraps drives one depth-64 queue from empty to its bound
// with pushes and pops interleaved so the oldest packet sits mid-buffer
// at every doubling (2→4→…→64), then wraps it at the bound. FIFO order,
// the refused push past the bound, and zeroed slots behind the consumer
// must hold throughout; a grow that copied from index 0 instead of from
// head would reorder packets.
func TestVOQRingWraps(t *testing.T) {
	const depth = 64
	r := new(voqRing[int])
	if r.slots != nil {
		t.Fatal("a fresh queue must hold no slots")
	}
	pushed, popped := 0, 0
	push := func() {
		t.Helper()
		if !r.push(voqSlot[int]{payload: pushed, enq: int64(pushed)}, depth) {
			t.Fatalf("push %d refused at occupancy %d, below the bound", pushed, r.size())
		}
		pushed++
	}
	pop := func() {
		t.Helper()
		h := r.head
		s, ok := r.pop()
		if !ok {
			t.Fatalf("pop %d found the queue empty", popped)
		}
		if s.payload != popped || s.enq != int64(popped) {
			t.Fatalf("popped %d (enq %d), want %d: FIFO broken", s.payload, s.enq, popped)
		}
		if r.slots[h] != (voqSlot[int]{}) {
			t.Fatalf("slot %d not zeroed after pop: %+v", h, r.slots[h])
		}
		popped++
	}
	push()
	push()
	for size := 2; size < depth; size *= 2 {
		// Rotate the full buffer by half: head moves mid-buffer and the
		// newest packets wrap around to index 0.
		for i := 0; i < size/2; i++ {
			pop()
			push()
		}
		if len(r.slots) != size || r.head != size/2 {
			t.Fatalf("before growing: %d slots, head %d; want %d, %d", len(r.slots), r.head, size, size/2)
		}
		for r.size() < int64(2*size) {
			push()
		}
		if len(r.slots) != 2*size {
			t.Fatalf("%d packets queued in %d slots, want %d slots", r.size(), len(r.slots), 2*size)
		}
	}
	// At the bound: wrap twice around the full buffer, then the 65th
	// packet is refused.
	for i := 0; i < 2*depth; i++ {
		pop()
		push()
	}
	if r.push(voqSlot[int]{payload: -1}, depth) {
		t.Fatalf("push beyond the bound of %d accepted", depth)
	}
	if len(r.slots) != depth {
		t.Fatalf("queue grew to %d slots past its bound %d", len(r.slots), depth)
	}
	for r.size() > 0 {
		pop()
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from an empty queue succeeded")
	}
	if popped != pushed {
		t.Fatalf("pushed %d packets but popped %d", pushed, popped)
	}
}

// TestVOQMemoryBill pins what one flow's queue costs at T=int: a slot
// holds only what the flow does not imply (payload, trace, enqueue
// time), and a queue header carries no bound of its own (its shard
// holds the one every queue shares). A field added to either fails
// here instead of quietly raising resident memory.
func TestVOQMemoryBill(t *testing.T) {
	slot, mslot := unsafe.Sizeof(voqSlot[int]{}), unsafe.Sizeof(voqSlot[mpayload[int]]{})
	var r voqRing[int]
	header := unsafe.Sizeof(r)
	// A flow that has seen one packet holds its header and a first
	// buffer of two slots.
	perFlow := header + 2*slot
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"unicast slot voqSlot[int]", slot, 24},
		{"multicast slot voqSlot[mpayload[int]]", mslot, 48},
		{"queue header voqRing[int]", header, 48},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d: a flow's first packet now costs %d B (header + 2 slots), pinned at 96 B",
				c.what, c.got, c.want, perFlow)
		}
	}
}

// TestVOQFootprint pins ingress memory to traffic rather than to
// N²·depth: a fabric allocates no grid rows before its first packet,
// and one packet on each of the N² flows leaves exactly N² queues of
// two slots each once drained.
func TestVOQFootprint(t *testing.T) {
	idle, err := New[int](Config{LogN: 10, Planes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range idle.shards {
		if rows, rings, slots := sh.footprint(); rows != 0 || rings != 0 || slots != 0 {
			t.Errorf("idle shard %d holds %d rows, %d queues, %d slots", i, rows, rings, slots)
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
	rings, slots := 0, 0
	for _, sh := range f.shards {
		_, r, s := sh.footprint()
		rings += r
		slots += s
	}
	if rings != n*n || slots != 2*n*n {
		t.Fatalf("%d one-packet flows left %d queues holding %d slots, want %d queues of 2 slots",
			n*n, rings, slots, n*n)
	}
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
// accounting, and that a queue at its bound holds exactly bound slots.
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
		if rows, rings, slots := v.footprint(); rows != 1 || rings != 2 || slots != depth+2 {
			t.Fatalf("depth %d: %d rows, %d queues, %d slots; want 1, 2, %d", depth, rows, rings, slots, depth+2)
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
