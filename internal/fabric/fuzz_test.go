package fabric

import (
	"errors"
	"sync/atomic"
	"testing"
)

// FuzzVOQ decodes its input into unicast enqueues, multicast enqueues
// and frame builds on one small DropNew shard (N from 2 to 16, depth
// from 1 to 8) and checks every step against a per-flow FIFO model:
// a flow refuses exactly when it holds ringDepth(depth) packets, the
// occupancy counters match the model, every frame is a conflict-free
// matching (a permutation dest when it carries no fan-out) whose
// packets are their flows' heads, and once drained every packet left
// exactly once and every used arena slot is back on its row's free
// list with no nonempty bit left set.
//
// Input layout: byte 0 picks N, byte 1 the depth, then each op is an
// opcode byte followed by its operands: unicast (src, dst), multicast
// (src, destination mask low, mask high), or a frame build.
func FuzzVOQ(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 3})
	f.Add([]byte{2, 7, 0, 0, 1, 2, 0, 0xfe, 0, 0, 1, 3, 0, 2, 1, 2, 3, 1, 1, 3, 3, 3})
	f.Add([]byte{3, 0, 2, 5, 0xff, 0xff, 2, 5, 0x0f, 0, 0, 5, 5, 1, 5, 6, 3, 2, 6, 0xf0, 0xf0, 3, 3})
	f.Add([]byte{0, 3, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 << (data[0] % 4)
		depth := 1 + int(data[1]%8)
		bound := ringDepth(depth)
		data = data[2:]
		v := newVOQShard[int](n, depth, nil)

		type mpkt struct {
			id   int
			dsts []int
		}
		uq := make([][][]int, n) // uq[src][dst]: queued unicast ids, oldest first
		for i := range uq {
			uq[i] = make([][]int, n)
		}
		mq := make([][]mpkt, n) // mq[src]: queued multicast packets
		dropped := make([]int64, n)
		queued := 0
		nextID := 0

		check := func() {
			t.Helper()
			if got := v.occupancy(); got != int64(queued) {
				t.Fatalf("occupancy %d, model holds %d", got, queued)
			}
			snap := v.snapshot()
			for in := 0; in < n; in++ {
				want := 0
				for _, q := range uq[in] {
					want += len(q)
				}
				if snap[in].Occupied != int64(want) || snap[in].Dropped != dropped[in] {
					t.Fatalf("input %d: occupied %d, dropped %d; model %d, %d",
						in, snap[in].Occupied, snap[in].Dropped, want, dropped[in])
				}
			}
		}

		frame := func() bool {
			t.Helper()
			fr := newFrame[int](n)
			ok := v.buildFrame(fr)
			if ok != (queued > 0) {
				t.Fatalf("buildFrame reported %v with %d packets queued", ok, queued)
			}
			if !ok {
				return false
			}
			if len(fr.srcs) != len(fr.pkts) || len(fr.dsts) != len(fr.pkts) {
				t.Fatalf("frame carries %d packets but %d srcs, %d dsts", len(fr.pkts), len(fr.srcs), len(fr.dsts))
			}
			inUsed := make([]bool, n)
			outUsed := make([]bool, n)
			mpkts, mcopies := 0, 0
			for k := 0; k < len(fr.pkts); {
				p := fr.pkts[k]
				if fr.srcs[k] != p.Src || fr.dsts[k] != p.Dst {
					t.Fatalf("frame pair %d is %d→%d, packet says %d→%d", k, fr.srcs[k], fr.dsts[k], p.Src, p.Dst)
				}
				if inUsed[p.Src] {
					t.Fatalf("frame uses input %d twice", p.Src)
				}
				inUsed[p.Src] = true
				// A multicast head leaves as consecutive copies from
				// one input with one payload, in its destination order.
				if q := mq[p.Src]; len(q) > 0 && q[0].id == p.Payload {
					head := q[0]
					if k+len(head.dsts) > len(fr.pkts) {
						t.Fatalf("multicast packet %d left with %d of %d copies", head.id, len(fr.pkts)-k, len(head.dsts))
					}
					for c, d := range head.dsts {
						cp := fr.pkts[k+c]
						if cp.Src != p.Src || cp.Dst != d || cp.Payload != head.id {
							t.Fatalf("copy %d of multicast packet %d is %d→%d (payload %d), want %d→%d",
								c, head.id, cp.Src, cp.Dst, cp.Payload, p.Src, d)
						}
						if outUsed[d] {
							t.Fatalf("frame uses output %d twice", d)
						}
						outUsed[d] = true
					}
					mq[p.Src] = q[1:]
					queued--
					mpkts++
					mcopies += len(head.dsts)
					k += len(head.dsts)
					continue
				}
				q := uq[p.Src][p.Dst]
				if len(q) == 0 || q[0] != p.Payload {
					t.Fatalf("packet %d left flow %d→%d out of order (flow holds %v)", p.Payload, p.Src, p.Dst, q)
				}
				if outUsed[p.Dst] {
					t.Fatalf("frame uses output %d twice", p.Dst)
				}
				outUsed[p.Dst] = true
				uq[p.Src][p.Dst] = q[1:]
				queued--
				k++
			}
			if fr.mcast != (mpkts > 0) || fr.mpkts != mpkts || fr.mcopies != mcopies {
				t.Fatalf("frame says mcast %v, %d packets, %d copies; carried %d packets, %d copies",
					fr.mcast, fr.mpkts, fr.mcopies, mpkts, mcopies)
			}
			if fr.mcast {
				want := make([]int, n)
				for i := range want {
					want[i] = Idle
				}
				for k := range fr.pkts {
					want[fr.dsts[k]] = fr.srcs[k]
				}
				for d := range want {
					if fr.outSrc[d] != want[d] {
						t.Fatalf("frame maps output %d from %d, its packets say %d", d, fr.outSrc[d], want[d])
					}
				}
			} else {
				if err := fr.dest.Validate(); err != nil {
					t.Fatalf("frame dest is not a permutation: %v", err)
				}
				for _, p := range fr.pkts {
					if fr.dest[p.Src] != p.Dst {
						t.Fatalf("dest[%d] = %d, but its packet wants %d", p.Src, fr.dest[p.Src], p.Dst)
					}
				}
			}
			return true
		}

		for len(data) > 0 {
			op := data[0] % 4
			data = data[1:]
			switch op {
			case 0, 1:
				if len(data) < 2 {
					data = nil
					break
				}
				src, dst := int(data[0])%n, int(data[1])%n
				data = data[2:]
				full := len(uq[src][dst]) == bound
				err := v.enqueue(Packet[int]{Src: src, Dst: dst, Payload: nextID}, DropNew)
				switch {
				case full && !errors.Is(err, ErrBackpressure):
					t.Fatalf("flow %d→%d holds %d packets, its bound, but enqueue returned %v", src, dst, bound, err)
				case full:
					dropped[src]++
				case err != nil:
					t.Fatalf("flow %d→%d holds %d of %d packets, but enqueue returned %v", src, dst, len(uq[src][dst]), bound, err)
				default:
					uq[src][dst] = append(uq[src][dst], nextID)
					queued++
				}
			case 2:
				if len(data) < 3 {
					data = nil
					break
				}
				src := int(data[0]) % n
				mask := (uint(data[1]) | uint(data[2])<<8) & (1<<uint(n) - 1)
				data = data[3:]
				if mask == 0 {
					mask = 1 << uint(src)
				}
				var dsts []int
				for k := 0; k < n; k++ {
					if d := (src + k) % n; mask&(1<<uint(d)) != 0 {
						dsts = append(dsts, d)
					}
				}
				full := len(mq[src]) == bound
				err := v.enqueueMcast(src, voqSlot[mpayload[int]]{payload: mpayload[int]{dsts: dsts, data: nextID}}, DropNew)
				switch {
				case full && !errors.Is(err, ErrBackpressure):
					t.Fatalf("input %d holds %d multicast packets, its bound, but enqueue returned %v", src, bound, err)
				case full:
					dropped[src]++
				case err != nil:
					t.Fatalf("input %d holds %d of %d multicast packets, but enqueue returned %v", src, len(mq[src]), bound, err)
				default:
					mq[src] = append(mq[src], mpkt{id: nextID, dsts: dsts})
					queued++
				}
			case 3:
				frame()
			}
			nextID++
			check()
		}
		for frame() {
			check()
		}
		check()
		for i := range v.nonempty {
			if w := v.nonempty[i].Load(); w != 0 {
				t.Fatalf("drained shard keeps nonempty bits %#x in word %d", w, i)
			}
		}
		drainedArena(t, v.rows)
		drainedArena(t, v.mrows)
	})
}

// drainedArena fails unless every used slot of every installed row is
// on the row's free list (the slots past len were never used). The
// rows must hold no packet.
func drainedArena[E any](t *testing.T, rows []atomic.Pointer[voqRow[E]]) {
	t.Helper()
	for in := range rows {
		r := rows[in].Load()
		if r == nil {
			continue
		}
		if got := r.freeLen(); got != len(r.slots) {
			t.Fatalf("drained row %d has %d of its %d used slots on the free list", in, got, len(r.slots))
		}
	}
}
