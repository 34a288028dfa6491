package replay_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/journal/replay"
	"repro/internal/perm"
)

// TestReplayEndToEnd is the acceptance scenario: a seeded mixed
// workload — engine routes, fabric packets, multicast (packet and round
// form), collective rounds, a fault flap — journaled end to end, then
// chain-verified and replayed against a fresh network with zero
// divergences.
func TestReplayEndToEnd(t *testing.T) {
	const (
		logN   = 3
		n      = 1 << logN
		planes = 2
		seed   = 99
	)
	j, err := journal.New(journal.Config{CheckpointEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	jw := j.Writer()

	fab, err := fabric.New[int](fabric.Config{
		LogN: logN, Planes: planes, VOQDepth: 64, Policy: fabric.Block, Journal: jw,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.SetCheckpointSource(fab.JournalCheckpoint)
	eng, err := engine.New[int](engine.Config{LogN: logN, Journal: jw})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	// Engine routes: a self-routable F(n) member and random permutations.
	if resp := eng.Route(perm.BitReversal(logN), data); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for r := 0; r < 4; r++ {
		if resp := eng.Route(perm.Random(n, rng), data); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	// Unicast packets, with a fault flap mid-stream.
	for i := 0; i < 60; i++ {
		if i == 20 {
			if err := fab.InjectFaults(0, []core.Fault{{Stage: 2, Switch: 1, StuckCrossed: true}}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 40 {
			if err := fab.InjectFaults(0, nil); err != nil { // heal
				t.Fatal(err)
			}
		}
		if err := fab.Send(fabric.Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	// An administrative plane flap.
	if err := fab.FailPlane(1); err != nil {
		t.Fatal(err)
	}
	if err := fab.RestorePlane(1); err != nil {
		t.Fatal(err)
	}
	// Multicast: the packet path and a whole-mapping round.
	for i := 0; i < 8; i++ {
		src := rng.Intn(n)
		if err := fab.SendMulticast(fabric.MulticastPacket[int]{
			Src: src, Dsts: []int{i % n, (i + 3) % n}, Payload: src,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mapping := make([]int, n)
	for out := range mapping {
		mapping[out] = fabric.Idle
	}
	mapping[1], mapping[5], mapping[6] = 0, 3, 3
	if _, err := fab.RouteMulticastRound(mapping, 0); err != nil {
		t.Fatal(err)
	}
	// Collective rounds on both planes.
	if _, err := fab.RouteRound(perm.BitReversal(logN), 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range []perm.Perm{perm.Random(n, rng), perm.Random(n, rng), perm.BitReversal(logN)} {
		if _, err := fab.RouteRound(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	fab.Close() // flush every queued frame into the journal
	eng.Close()

	from, to, ok := j.Bounds()
	if !ok {
		t.Fatal("journal is empty after the workload")
	}
	rep, err := replay.Window(replay.Config{LogN: logN, Planes: planes}, j, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ChainOK {
		t.Fatalf("chain broken at seq %d", rep.FirstBadSeq)
	}
	if !rep.Clean() {
		t.Fatalf("replay diverged at seq %d: %+v", rep.FirstDivergentSeq, rep.Divergences[0])
	}
	// Frames batch many packets into one scheduled permutation, so the
	// record count is well below the packet count — but a mixed workload
	// of this size still journals a few dozen admissions.
	if rep.Replayed < 20 {
		t.Fatalf("replayed only %d records, want 20+", rep.Replayed)
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoint records replayed despite CheckpointEvery=16")
	}
	if j.Metrics().ReplayDivergences() != 0 {
		t.Fatalf("divergence metric = %d after a clean replay", j.Metrics().ReplayDivergences())
	}

	// Every emission point must be represented in the journal.
	recs, err := j.Read(from, to)
	if err != nil {
		t.Fatal(err)
	}
	var seen [journal.KindMax]int
	for _, r := range recs {
		seen[r.Kind]++
	}
	for k := journal.Kind(1); k < journal.KindMax; k++ {
		if seen[k] == 0 {
			t.Errorf("no %v records journaled by the mixed workload", k)
		}
	}
}

// TestReplayDetectsForgedDelivery pins the audit axis the chain cannot
// cover alone: a record whose delivery digest disagrees with what the
// network actually does must surface as a divergence at that seq.
func TestReplayDetectsForgedDelivery(t *testing.T) {
	const logN = 3
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	d1, d2 := perm.BitReversal(logN), perm.Identity(1<<logN)
	w.Round(0, d1, journal.DigestPerm(d1))
	w.Round(0, d2, journal.DigestPerm(d2)+1) // forged: off by one
	w.Round(0, d1, journal.DigestPerm(d1))

	recs, err := j.Read(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(replay.Config{LogN: logN, Planes: 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 || rep.FirstDivergentSeq != 2 {
		t.Fatalf("want exactly one divergence at seq 2, got %+v", rep.Divergences)
	}

	// A frame record is its packets' pairs: a moved destination or a
	// forged digest diverges at exactly that record.
	jf, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	wf := jf.Writer()
	srcs, dsts := []int{0, 5, 3}, []int{6, 1, 2}
	msrcs, mdsts := []int{4, 4}, []int{0, 7}
	wf.Frame(0, srcs, dsts, journal.DigestPairs(srcs, dsts))                  // 1
	wf.Frame(0, srcs, []int{6, 1, 4}, journal.DigestPairs(srcs, dsts))        // 2: forged dst
	wf.Frame(1, srcs, dsts, journal.DigestPairs(srcs, dsts)+1)                // 3: forged digest
	wf.McastFrame(1, msrcs, mdsts, journal.DigestPairs(msrcs, mdsts))         // 4
	wf.McastFrame(0, msrcs, []int{0, 6}, journal.DigestPairs(msrcs, mdsts))   // 5: forged dst
	wf.McastFrame(0, msrcs, mdsts, journal.DigestPairs(msrcs, mdsts)^0x10000) // 6: forged digest
	recs, err = jf.Read(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = replay.Run(replay.Config{LogN: logN, Planes: 2}, recs)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, d := range rep.Divergences {
		got = append(got, d.Seq)
	}
	if len(got) != 4 || got[0] != 2 || got[1] != 3 || got[2] != 5 || got[3] != 6 {
		t.Fatalf("want divergences at seqs 2, 3, 5 and 6, got %+v", rep.Divergences)
	}
}

// TestReplayDetectsCountTamper pins the checkpoint audit: per-kind
// deltas between checkpoints must match what replay actually saw.
func TestReplayDetectsCountTamper(t *testing.T) {
	const logN = 2
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetCheckpointSource(func() journal.Checkpoint { return journal.Checkpoint{} })
	w := j.Writer()
	d := perm.BitReversal(logN)
	w.Checkpoint()
	w.Round(0, d, journal.DigestPerm(d))
	w.Round(0, d, journal.DigestPerm(d))
	w.Checkpoint()

	recs, err := j.Read(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend a round went missing between the checkpoints.
	recs[3].Checkpoint.KindCounts[journal.KindRound]--
	rep, err := replay.Run(replay.Config{LogN: logN, Planes: 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentSeq != 4 {
		t.Fatalf("tampered checkpoint not flagged: %+v", rep.Divergences)
	}
}

// TestReplayPlaneRangeCheck: plane-scoped records naming planes the
// configured fabric never had are divergences, not crashes.
func TestReplayPlaneRangeCheck(t *testing.T) {
	const logN = 2
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	d := perm.BitReversal(logN)
	w.Round(5, d, journal.DigestPerm(d)) // plane 5 of a 2-plane fabric

	recs, err := j.Read(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(replay.Config{LogN: logN, Planes: 2}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentSeq != 1 {
		t.Fatalf("out-of-range plane not flagged: %+v", rep)
	}
}

// TestWindowStreamsLikeRun pins the streaming audit: Window, which
// replays each record as Journal.Scan decodes it, reports exactly what
// Run reports on the same window read whole, plus the chain walk's
// verdict. The ring is small enough that most of the window comes back
// from spilled segments, and two forged digests, one on disk and one
// in memory, put divergences in both reports.
func TestWindowStreamsLikeRun(t *testing.T) {
	const (
		logN   = 3
		n      = 1 << logN
		planes = 2
		total  = 120
	)
	j, err := journal.New(journal.Config{Cap: 16, SegmentRecords: 4, SpillDir: t.TempDir(), SpillQueue: 64, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	j.SetCheckpointSource(func() journal.Checkpoint { return journal.Checkpoint{} })
	w := j.Writer()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < total; i++ {
		forge := uint64(0)
		if i == 9 || i == total-3 {
			forge = 1
		}
		plane := i % planes
		switch i % 5 {
		case 0:
			d := perm.Random(n, rng)
			w.Route(d, journal.DigestPerm(d)+forge)
		case 1:
			d := perm.Random(n, rng)
			w.Round(plane, d, journal.DigestPerm(d)+forge)
		case 2:
			k := 1 + rng.Intn(n)
			srcs, dsts := rng.Perm(n)[:k], rng.Perm(n)[:k]
			w.Frame(plane, srcs, dsts, journal.DigestPairs(srcs, dsts)+forge)
		case 3:
			src, outs := rng.Intn(n), rng.Perm(n)[:2]
			srcs := []int{src, src}
			w.McastFrame(plane, srcs, outs, journal.DigestPairs(srcs, outs)+forge)
		case 4:
			m := make([]int, n)
			for out := range m {
				m[out] = fabric.Idle
				if rng.Intn(2) == 0 {
					m[out] = rng.Intn(n)
				}
			}
			m[rng.Intn(n)] = 0 // never empty
			w.McastRound(plane, m, journal.DigestMapping(m)+forge)
		}
	}
	j.Close() // drain the spill queue
	if j.Metrics().Spilled() == 0 {
		t.Fatal("no segments spilled despite a tiny ring")
	}
	from, to, ok := j.Bounds()
	if !ok || from != 1 {
		t.Fatalf("Bounds = (%d, %d, %v), want the whole window from seq 1", from, to, ok)
	}

	cfg := replay.Config{LogN: logN, Planes: planes}
	recs, err := j.Read(from, to)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay.Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	vr := j.Verify(from, to)
	want.From, want.To = vr.From, to
	want.ChainOK, want.FirstBadSeq, want.Head = vr.OK, vr.FirstBadSeq, vr.Head

	got, err := replay.Window(cfg, j, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Window = %+v\nRun on the read window = %+v", got, want)
	}
	if got.Replayed != int(to-from+1) || got.Checkpoints == 0 || !got.ChainOK || len(got.Divergences) != 2 {
		t.Fatalf("replayed %d of %d records, %d checkpoints, chain ok %v, divergences %+v; want all, some, true and the 2 forged",
			got.Replayed, to-from+1, got.Checkpoints, got.ChainOK, got.Divergences)
	}
}

// TestReplayBytes bounds what Window allocates per record at N=256 for
// each of five record kinds, all under 256 B: a looping route, an F(n)
// route, a 16-packet frame, a 16-copy multicast frame and a 64-output
// multicast round. Replay sets each permutation up with the serving
// kernels into one reused setting on one reused scratch and walks it
// back into one reused line vector, compiles each mapping into one
// reused plan and walks its outputs into reused buffers, and checks a
// route's vector without an N-int scratch, so a record costs about its
// decoded Record.
func TestReplayBytes(t *testing.T) {
	const (
		logN    = 8
		n       = 1 << logN
		records = 2000
	)
	rng := rand.New(rand.NewSource(25))
	for _, kind := range []struct {
		name   string
		budget uint64
		write  func(w *journal.Writer)
	}{
		{"looped-route", 256, func(w *journal.Writer) {
			d := perm.Random(n, rng)
			w.Route(d, journal.DigestPerm(d))
		}},
		{"self-routed-route", 256, func(w *journal.Writer) {
			d := perm.RandomF(logN, rng)
			w.Route(d, journal.DigestPerm(d))
		}},
		{"frame", 256, func(w *journal.Writer) {
			srcs, dsts := rng.Perm(n)[:16], rng.Perm(n)[:16]
			w.Frame(0, srcs, dsts, journal.DigestPairs(srcs, dsts))
		}},
		{"mcast-frame", 256, func(w *journal.Writer) {
			// 16 copies: four sources, four outputs each.
			srcs, outs := make([]int, 16), rng.Perm(n)[:16]
			for k := range srcs {
				srcs[k] = k / 4
			}
			w.McastFrame(0, srcs, outs, journal.DigestPairs(srcs, outs))
		}},
		{"mcast-round", 256, func(w *journal.Writer) {
			// 64 assigned outputs fed by 16 sources.
			m := make([]int, n)
			for out := range m {
				m[out] = fabric.Idle
			}
			for _, out := range rng.Perm(n)[:64] {
				m[out] = rng.Intn(16)
			}
			w.McastRound(0, m, journal.DigestMapping(m))
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			j, err := journal.New(journal.Config{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			w := j.Writer()
			for i := 0; i < records; i++ {
				kind.write(w)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rep, err := replay.Window(replay.Config{LogN: logN, Planes: 1}, j, 1, records)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() || rep.Replayed != records {
				t.Fatalf("replayed %d of %d records, clean %v: %+v", rep.Replayed, records, rep.Clean(), rep.Divergences)
			}
			per := (m1.TotalAlloc - m0.TotalAlloc) / records
			t.Logf("%s at N=%d: %d B allocated per record", kind.name, n, per)
			if per > kind.budget {
				t.Fatalf("%s replay allocates %d B per record, budget %d B", kind.name, per, kind.budget)
			}
		})
	}
}
