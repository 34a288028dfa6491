package core

import (
	"math/rand"
	"testing"
)

// TestPackStates checks the word-at-a-time packer against a bit-by-bit
// reference, on a buffer left dirty with every bit set, at 1, 2, 64
// and 512 switches per stage: one partial word, one word exactly, and
// several words. Unpacking the words into a dirty setting must give
// back the original.
func TestPackStates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, switches := range []int{1, 2, 64, 512} {
		const stages = 5
		st := make(States, stages)
		for s := range st {
			st[s] = make([]bool, switches)
			for i := range st[s] {
				st[s][i] = rng.Intn(2) == 1
			}
		}
		st[0][switches-1] = true // a top bit in every geometry
		words := (switches + 63) / 64
		want := make([]uint64, stages*words)
		for s := range st {
			for i, crossed := range st[s] {
				if crossed {
					want[s*words+i/64] |= 1 << uint(i%64)
				}
			}
		}
		if st.PackedLen() != len(want) {
			t.Fatalf("switches=%d: PackedLen %d, want %d", switches, st.PackedLen(), len(want))
		}
		dirty := make([]uint64, len(want)+1)
		for i := range dirty {
			dirty[i] = ^uint64(0)
		}
		got := st.Pack(dirty)
		if len(got) != len(want) {
			t.Fatalf("switches=%d: Pack returned %d words, want %d", switches, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("switches=%d: word %d = %#x, want %#x", switches, i, got[i], want[i])
			}
		}
		back := make(States, stages)
		for s := range back {
			back[s] = make([]bool, switches)
			for i := range back[s] {
				back[s][i] = true
			}
		}
		back.Unpack(got)
		if back.String() != st.String() {
			t.Fatalf("switches=%d: Unpack(Pack(st)) differs from st", switches)
		}
	}
}

// TestPackMcastStates checks the four-state packer against a
// switch-by-switch reference of the lo/hi layout, on buffers left dirty
// with every bit set, at 1, 2, 64 and 512 switches per stage.
func TestPackMcastStates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, switches := range []int{1, 2, 64, 512} {
		const stages = 4
		st := make(McastStates, stages)
		for s := range st {
			st[s] = make([]McastState, switches)
			for i := range st[s] {
				st[s][i] = McastState(rng.Intn(4))
			}
		}
		st[0][switches-1] = McBcastLower // both top bits in every geometry
		words := (switches + 63) / 64
		wantLo, wantHi := make([]uint64, stages*words), make([]uint64, stages*words)
		for s := range st {
			for i, state := range st[s] {
				bit := uint64(1) << uint(i%64)
				if state == McCross || state == McBcastLower {
					wantLo[s*words+i/64] |= bit
				}
				if state.Broadcast() {
					wantHi[s*words+i/64] |= bit
				}
			}
		}
		if st.PackedLen() != len(wantLo) {
			t.Fatalf("switches=%d: PackedLen %d, want %d", switches, st.PackedLen(), len(wantLo))
		}
		lo, hi := make([]uint64, len(wantLo)), make([]uint64, len(wantHi))
		for i := range lo {
			lo[i], hi[i] = ^uint64(0), ^uint64(0)
		}
		st.Pack(lo, hi)
		for i := range wantLo {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("switches=%d: word %d = (%#x, %#x), want (%#x, %#x)",
					switches, i, lo[i], hi[i], wantLo[i], wantHi[i])
			}
		}
	}
}
