package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkFabricThroughput measures end-to-end packets/sec through the
// full path — Send → VOQ → frame scheduler → plane engine → delivery —
// at N=256 with K=1 versus K=GOMAXPROCS planes, demonstrating
// multi-plane scaling. The Block policy keeps every offered packet in
// play so each iteration counts a delivered packet.
func BenchmarkFabricThroughput(b *testing.B) { benchFabricThroughput(b, false) }

// BenchmarkFabricThroughputRecord is BenchmarkFabricThroughput with the
// planes' flight recorders on, as benesd runs by default: the gap to
// the recorder-off rows is the per-frame recording cost.
func BenchmarkFabricThroughputRecord(b *testing.B) { benchFabricThroughput(b, true) }

func benchFabricThroughput(b *testing.B, record bool) {
	multi := runtime.GOMAXPROCS(0)
	if multi < 2 {
		multi = 2 // still exercise the multi-plane path on one core
	}
	ks := []int{1, multi}
	for _, k := range ks {
		b.Run(fmt.Sprintf("planes=%d", k), func(b *testing.B) {
			done := make(chan struct{})
			var delivered atomic.Int64
			target := int64(b.N)
			f, err := New[int](Config{
				LogN:     8, // N = 256
				Planes:   k,
				VOQDepth: 16,
				Policy:   Block,
				Record:   record,
			}, func(Packet[int]) {
				if delivered.Add(1) == target {
					close(done)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			senders := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			b.SetBytes(8) // one int payload per packet
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s)))
					n := f.N()
					for i := s; i < b.N; i += senders {
						if err := f.Send(Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n)}); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
			f.Close()
		})
	}
}

// BenchmarkFrameScheduler isolates the matchmaking hot path: enqueue
// and extract under full uniform load, no engine behind it.
func BenchmarkFrameScheduler(b *testing.B) {
	const logN = 8
	n := 1 << logN
	v := newVOQShard[int](n, 4, nil)
	fr := newFrame[int](n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v.enqueue(Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n)}, DropNew) == nil {
		}
		if !v.buildFrame(fr) {
			b.Fatal("queues loaded but no frame extracted")
		}
	}
}
