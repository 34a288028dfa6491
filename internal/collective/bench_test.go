package collective

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/perm"
)

// The acceptance benchmark pair: the compiled/pipelined collective
// path versus the naive alternative — the same N permutations
// submitted to the fabric one at a time, no plane parallelism. Run
// with
//
//	go test ./internal/collective/ -bench AllToAll -benchtime 2x
//
// and compare ns/op; the collective path should win by roughly the
// plane count.

func benchFabric(b *testing.B, logN, planes int) *fabric.Fabric[int] {
	b.Helper()
	f, err := fabric.New[int](fabric.Config{LogN: logN, Planes: planes}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f
}

func benchPayload(n int) [][]int {
	data := make([][]int, n)
	for p := range data {
		data[p] = make([]int, n)
		for c := range data[p] {
			data[p][c] = p*n + c
		}
	}
	return data
}

// BenchmarkCollectiveAllToAll measures the compiled path at N=256
// with one plane per available CPU.
func BenchmarkCollectiveAllToAll(b *testing.B) {
	const logN, n = 8, 256
	planes := runtime.GOMAXPROCS(0)
	s := New[int](benchFabric(b, logN, planes), Options{})
	data := benchPayload(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := s.AllToAll(context.Background(), data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Rounds)/b.Elapsed().Seconds(), "rounds/s")
	b.ReportMetric(float64(st.ChunksMoved)/b.Elapsed().Seconds(), "chunks/s")
	b.ReportMetric(st.SelfRouteRatio, "self-route-ratio")
}

// BenchmarkNaiveAllToAll measures the baseline the collective layer
// replaces: k independent per-permutation fabric submissions. Each
// round builds its own shift permutation and move list (nothing is
// amortized across submissions), routes it on one plane, and applies
// the deliveries serially.
func BenchmarkNaiveAllToAll(b *testing.B) {
	const logN, n = 8, 256
	f := benchFabric(b, logN, runtime.GOMAXPROCS(0))
	in := benchPayload(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := make([][]int, n)
		for p := range state {
			state[p] = make([]int, n)
		}
		for r := 0; r < n; r++ {
			dest := perm.CyclicShift(logN, r)
			moves := make([]Move, 0, n)
			for p := 0; p < n; p++ {
				d := dest[p]
				moves = append(moves, Move{SrcPort: p, SrcChunk: d, DstPort: d, DstChunk: p})
			}
			if _, err := f.RouteRound(dest, 0); err != nil {
				b.Fatal(err)
			}
			for _, m := range moves {
				state[m.DstPort][m.DstChunk] = in[m.SrcPort][m.SrcChunk]
			}
		}
	}
}

// benchBroadcast drives root-0 broadcasts of chunks chunks at N=256:
// one copy-network round per chunk.
func benchBroadcast(b *testing.B, chunks int) {
	const logN, n = 8, 256
	planes := runtime.GOMAXPROCS(0)
	s := New[int](benchFabric(b, logN, planes), Options{})
	data := make([][]int, n)
	data[0] = make([]int, chunks)
	for c := range data[0] {
		data[0][c] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := s.Broadcast(context.Background(), 0, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Rounds)/float64(b.N), "rounds/op")
}

// BenchmarkCollectiveBroadcast measures the broadcast of one chunk: a
// single copy-network round.
func BenchmarkCollectiveBroadcast(b *testing.B) { benchBroadcast(b, 1) }

// BenchmarkCollectiveBroadcastWide repeats it at 8 chunks: eight
// rounds of one mapping, spread across the planes.
func BenchmarkCollectiveBroadcastWide(b *testing.B) { benchBroadcast(b, 8) }

// BenchmarkCollectiveTranspose measures the column-collective path —
// one plan, k rounds — at N=256 with 8 chunk columns.
func BenchmarkCollectiveTranspose(b *testing.B) {
	const logN, n, chunks = 8, 256, 8
	planes := runtime.GOMAXPROCS(0)
	s := New[int](benchFabric(b, logN, planes), Options{})
	data := make([][]int, n)
	for p := range data {
		data[p] = make([]int, chunks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := s.Transpose(context.Background(), 16, 16, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
