package collective

import (
	"context"
	"testing"
)

// FuzzCollectiveShapes calls every operation at N=8 with a fuzzed
// root, transpose tiling and payload shape: widths holds one byte per
// port (at most 12 ports, each at most 16 chunks wide), and exchange
// and fan-out derive their destination lists from the same bytes. A
// call must never panic; a rejected call must leave the program cache
// as it found it (a malformed payload compiles nothing); an accepted
// call must complete without error.
func FuzzCollectiveShapes(f *testing.F) {
	const logN, n = 3, 8
	rows := func(w byte, k int) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = w
		}
		return b
	}
	f.Add(uint8(OpAllToAll), 0, 0, 0, rows(n, n))
	f.Add(uint8(OpExchange), 1, 0, 0, rows(1, n))
	f.Add(uint8(OpTranspose), 0, 2, 4, rows(3, n))
	f.Add(uint8(OpShuffle), 0, 0, 0, rows(2, n))
	f.Add(uint8(OpShuffle), 0, 0, 0, []byte{16})
	f.Add(uint8(OpBitReversal), 0, 0, 0, rows(1, n))
	f.Add(uint8(OpBroadcast), 5, 0, 0, []byte{0, 0, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(OpBroadcast), 0, 0, 0, []byte{16})
	f.Add(uint8(OpGather), 2, 0, 0, rows(1, n))
	f.Add(uint8(OpScatter), 3, 0, 0, []byte{0, 0, 0, n, 0, 0, 0, 0})
	f.Add(uint8(OpAllGather), 0, 0, 0, rows(1, n))
	f.Add(uint8(OpFanOut), 1, 0, 3, rows(1, n))
	s := newService(f, logN, 2, Options{})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, op uint8, root, rowsN, cols int, widths []byte) {
		if len(widths) > 12 {
			widths = widths[:12]
		}
		data := make([][]int, len(widths))
		dests := make([][]int, len(widths))
		for p, b := range widths {
			w := int(b % 17)
			data[p] = make([]int, w)
			dests[p] = make([]int, w)
			for c := range data[p] {
				data[p][c] = p*100 + c
				// Exchange reads -1 as Keep; fan-out rejects it.
				dests[p][c] = ((p+c*cols+root)%(n+1)+n+1)%(n+1) - 1
			}
		}
		before := programCount(s)
		var h *Handle[int]
		var err error
		switch Op(int(op) % numOps) {
		case OpAllToAll:
			h, err = s.AllToAll(ctx, data)
		case OpExchange:
			h, err = s.Exchange(ctx, dests, data)
		case OpTranspose:
			h, err = s.Transpose(ctx, rowsN, cols, data)
		case OpShuffle:
			h, err = s.Shuffle(ctx, data)
		case OpBitReversal:
			h, err = s.BitReversal(ctx, data)
		case OpBroadcast:
			h, err = s.Broadcast(ctx, root, data)
		case OpGather:
			h, err = s.Gather(ctx, root, data)
		case OpScatter:
			h, err = s.Scatter(ctx, root, data)
		case OpAllGather:
			h, err = s.AllGather(ctx, data)
		case OpFanOut:
			h, err = s.FanOut(ctx, dests, data)
		}
		if err != nil {
			if after := programCount(s); after != before {
				t.Fatalf("rejected call (%v) changed the program cache from %d to %d programs", err, before, after)
			}
			return
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("accepted call failed: %v", err)
		}
	})
}
