package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// pack returns st's packed setting in a fresh slice, the form
// RecordVector, RecordFlips and RecordFrame take.
func pack(st core.States) []uint64 {
	return st.Pack(make([]uint64, st.PackedLen()))
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
		masks[j] = pack(st)
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * r.MaskWords()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordVector(masks[i&1])
	}
}
