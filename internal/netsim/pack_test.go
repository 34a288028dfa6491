package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestPackStatesInto checks the word-at-a-time packer against a
// bit-by-bit reference, on a buffer left dirty with every bit set, at
// 1, 2, 64 and 512 switches per stage: one partial word, one word
// exactly, and several words.
func TestPackStatesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, switches := range []int{1, 2, 64, 512} {
		const stages = 5
		r := NewRecorderGeom(stages, switches)
		st := make(core.States, stages)
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
		mask := make([]uint64, r.MaskWords())
		for i := range mask {
			mask[i] = ^uint64(0)
		}
		got := r.PackStatesInto(st, mask)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("switches=%d: word %d = %#x, want %#x", switches, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkPackStatesInto packs a random B(10) setting (19 stages of
// 512 switches), the per-miss and per-frame cost at N=1024.
func BenchmarkPackStatesInto(b *testing.B) {
	net := core.New(10)
	r := NewRecorder(net, 1)
	st := net.NewStates()
	rng := rand.New(rand.NewSource(1))
	for s := range st {
		for i := range st[s] {
			st[s][i] = rng.Intn(2) == 1
		}
	}
	mask := make([]uint64, r.MaskWords())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PackStatesInto(st, mask)
	}
}

// BenchmarkRecordVector records full vectors at N=1024 (19 stages of
// 512 switches), alternating between two random settings so every call
// flips about half the switches: the per-route recording cost of a
// warm cache that cycles through its working set.
func BenchmarkRecordVector(b *testing.B) {
	net := core.New(10)
	r := NewRecorder(net, 1)
	rng := rand.New(rand.NewSource(2))
	var masks [2][]uint64
	for j := range masks {
		st := net.NewStates()
		for s := range st {
			for i := range st[s] {
				st[s][i] = rng.Intn(2) == 1
			}
		}
		masks[j] = r.PackStates(st)
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * r.MaskWords()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordVector(masks[i&1])
	}
}
