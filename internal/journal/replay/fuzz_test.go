package replay_test

import (
	"math/rand"
	"testing"

	"repro/internal/journal"
	"repro/internal/journal/replay"
	"repro/internal/perm"
)

// FuzzFrameReplay drives frame records the way the fabric writes them —
// a unicast frame's pairs are a partial matching in claim order, a
// multicast frame's a fan-out of a few sources onto distinct outputs —
// and two route records, an F(n) member and a random permutation, so
// both setup kernels run, through Writer, Read and Run at N ≤ 64.
// Honest records replay clean; one forged frame, a destination moved or
// a delivery digest changed, diverges at exactly its own seq and
// nowhere else.
func FuzzFrameReplay(f *testing.F) {
	f.Add(uint8(3), int64(1), uint8(0))
	f.Add(uint8(6), int64(7), uint8(1))
	f.Add(uint8(1), int64(-3), uint8(2))
	f.Add(uint8(5), int64(42), uint8(3))
	f.Fuzz(func(t *testing.T, logN uint8, seed int64, forge uint8) {
		logN = 1 + logN%6
		n := 1 << logN
		rng := rand.New(rand.NewSource(seed))

		k := 1 + rng.Intn(n)
		usrcs, udsts := rng.Perm(n)[:k], rng.Perm(n)[:k]
		outs := rng.Perm(n)[:1+rng.Intn(n)]
		pool := rng.Perm(n)[:1+rng.Intn(len(outs))]
		msrcs := make([]int, len(outs))
		for i := range msrcs {
			msrcs[i] = pool[rng.Intn(len(pool))]
		}

		j, err := journal.New(journal.Config{CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		w := j.Writer()
		w.Frame(0, usrcs, udsts, journal.DigestPairs(usrcs, udsts))    // seq 1
		w.McastFrame(1, msrcs, outs, journal.DigestPairs(msrcs, outs)) // seq 2
		forgedSrcs, forgedDsts := usrcs, append([]int(nil), udsts...)  // seq 3
		digest := journal.DigestPairs(usrcs, udsts)
		if forge%4 >= 2 {
			forgedSrcs, forgedDsts = msrcs, append([]int(nil), outs...)
			digest = journal.DigestPairs(msrcs, outs)
		}
		if forge%2 == 0 {
			p := rng.Intn(len(forgedDsts))
			forgedDsts[p] = (forgedDsts[p] + 1 + rng.Intn(n-1)) % n
		} else {
			digest ^= 1 << uint(rng.Intn(64))
		}
		if forge%4 >= 2 {
			w.McastFrame(0, forgedSrcs, forgedDsts, digest)
		} else {
			w.Frame(1, forgedSrcs, forgedDsts, digest)
		}
		w.Frame(1, usrcs, udsts, journal.DigestPairs(usrcs, udsts)) // seq 4
		member, random := perm.RandomF(int(logN), rng), perm.Random(n, rng)
		w.Route(member, journal.DigestPerm(member)) // seq 5
		w.Route(random, journal.DigestPerm(random)) // seq 6

		recs, err := j.Read(1, 6)
		if err != nil || len(recs) != 6 {
			t.Fatalf("read %d records: %v", len(recs), err)
		}
		rep, err := replay.Run(replay.Config{LogN: int(logN), Planes: 2}, recs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Divergences) != 1 || rep.FirstDivergentSeq != 3 {
			t.Fatalf("N=%d forge %d: want exactly one divergence, at seq 3; got %+v", n, forge%4, rep.Divergences)
		}
	})
}
