package journal

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/core"
)

// fill appends n route records with distinct payloads through the
// Writer facade.
func fill(w *Writer, n int) {
	for i := 0; i < n; i++ {
		dest := []int{i, i + 1, i + 2, i + 3}
		w.Route(dest, DigestPerm(dest))
	}
}

// TestJournalAppendReadVerify covers the basic contract: mixed-kind
// appends get consecutive sequence numbers, read back in order, and the
// chain verifies end to end.
func TestJournalAppendReadVerify(t *testing.T) {
	j, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	if !w.Enabled() {
		t.Fatal("live writer reports disabled")
	}
	w.Route([]int{1, 0, 3, 2}, 0xaa)
	w.Frame(0, []int{0, 2}, []int{3, 1}, 0xbb)
	w.McastFrame(1, []int{0, 0, 1}, []int{0, 1, 3}, 0xcc)
	w.Round(1, []int{0, 1, 2, 3}, 0xdd)
	w.McastRound(0, []int{-1, 2, 2, -1}, 0xee)
	w.Inject(1, []core.Fault{{Stage: 1, Switch: 0, StuckCrossed: true}})
	w.Fail(1)
	w.Restore(1)

	seq, _ := j.Head()
	if seq != 8 {
		t.Fatalf("head seq = %d, want 8", seq)
	}
	oldest, newest, ok := j.Bounds()
	if !ok || oldest != 1 || newest != 8 {
		t.Fatalf("Bounds = (%d, %d, %v), want (1, 8, true)", oldest, newest, ok)
	}
	recs, err := j.Read(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("read %d records, want 8", len(recs))
	}
	wantKinds := []Kind{KindRoute, KindFrame, KindMcastFrame, KindRound, KindMcastRound, KindInject, KindFail, KindRestore}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Kind != wantKinds[i] {
			t.Fatalf("record %d: seq %d kind %v, want seq %d kind %v", i, r.Seq, r.Kind, i+1, wantKinds[i])
		}
		if r.TimeNs == 0 {
			t.Fatalf("record %d: no timestamp", i)
		}
	}
	vr := j.Verify(1, 8)
	if !vr.OK || vr.Records != 8 || vr.FirstBadSeq != 0 {
		t.Fatalf("Verify = %+v, want intact chain over 8 records", vr)
	}
	if vr.Head == "" {
		t.Fatal("Verify reports no head digest")
	}
	if got := j.Metrics().Appended(); got != 8 {
		t.Fatalf("appended metric = %d, want 8", got)
	}
}

// TestJournalTamper is the tamper-evidence guarantee: flipping bits in
// one record makes Verify fail at exactly that record's seq, whether
// the record still decodes (its digest no longer matches) or not, and
// leaves the chain before it intact.
func TestJournalTamper(t *testing.T) {
	const victim = 5
	route := func(w *Writer) { w.Route([]int{4, 5, 6, 7}, 0x55) }
	inject := func(w *Writer) { w.Inject(1, []core.Fault{{Stage: 1, Switch: 0, StuckCrossed: true}}) }
	// The victim route's Dest packs as base 4, width 1, entries 0 1 2 3;
	// its count sits at headerSize, base at +4, width at +8, entries at
	// +9. The victim Inject's stuck byte follows count, stage and switch.
	cases := []struct {
		name   string
		victim func(*Writer)
		at     int
		xor    byte
	}{
		{"dest entry", route, headerSize + 10, 0x01}, // entry 1 -> 0: still decodes
		{"width byte", route, headerSize + 8, 0x03},  // width 1 -> 2
		{"base", route, headerSize + 4, 0x01},        // base 4 -> 5: still decodes
		{"kind byte", route, 3, byte(KindRoute) ^ 0x7f},
		{"stuck byte", inject, headerSize + 12, 0x02}, // 0x01 -> 0x03
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			w := j.Writer()
			fill(w, victim-1)
			tc.victim(w)
			fill(w, 5)

			j.mu.Lock()
			j.cur.buf[int(j.cur.offs[victim-1])+tc.at] ^= tc.xor
			j.mu.Unlock()

			vr := j.Verify(1, 10)
			if vr.OK {
				t.Fatal("Verify accepted a tampered journal")
			}
			if vr.FirstBadSeq != victim {
				t.Fatalf("FirstBadSeq = %d, want %d: %s", vr.FirstBadSeq, victim, vr.Detail)
			}
			if vr := j.Verify(1, victim-1); !vr.OK {
				t.Fatalf("prefix before tamper point fails: %+v", vr)
			}
		})
	}
}

// TestJournalVerifyConcurrentAppend walks the chain while appends run,
// as /debug/journal/verify does under traffic; run it under -race.
func TestJournalVerifyConcurrentAppend(t *testing.T) {
	j, err := New(Config{SegmentRecords: 16, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	fill(w, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fill(w, 2000)
	}()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		_, newest, _ := j.Bounds()
		if vr := j.Verify(1, newest); !vr.OK || vr.Records != int(newest) {
			t.Fatalf("Verify(1, %d) during appends: %+v", newest, vr)
		}
	}
}

// TestJournalRotationSpill pushes many segments through a tiny ring
// with spill enabled: every record must remain readable (disk + memory
// combined) and the full chain must verify across the spill boundary.
func TestJournalRotationSpill(t *testing.T) {
	j, err := New(Config{Cap: 16, SegmentRecords: 4, SpillDir: t.TempDir(), SpillQueue: 32, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	fill(j.Writer(), total)
	j.Close() // drain the spill queue

	oldest, newest, ok := j.Bounds()
	if !ok || oldest != 1 || newest != total {
		t.Fatalf("Bounds = (%d, %d, %v), want (1, %d, true)", oldest, newest, ok, total)
	}
	recs, err := j.Read(1, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("read %d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if vr := j.Verify(1, total); !vr.OK {
		t.Fatalf("Verify across spill boundary: %+v", vr)
	}
	if j.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", j.Dropped())
	}
	if j.Metrics().Spilled() == 0 {
		t.Fatal("no segments spilled despite tiny ring")
	}
	// A window that starts mid-disk still reads and verifies.
	if vr := j.Verify(10, 50); !vr.OK || vr.Records != 41 {
		t.Fatalf("mid-window verify: %+v", vr)
	}
}

// TestJournalAgeOut covers the spill-less bounded window: old segments
// age out silently (not dropped — that is the spill-loss signal), the
// retained window stays readable, and Verify anchors at the retention
// boundary's segment start digest.
func TestJournalAgeOut(t *testing.T) {
	j, err := New(Config{Cap: 8, SegmentRecords: 4, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fill(j.Writer(), 20)

	oldest, newest, ok := j.Bounds()
	if !ok || oldest <= 1 || newest != 20 {
		t.Fatalf("Bounds = (%d, %d, %v): expected an aged-out prefix", oldest, newest, ok)
	}
	if j.Dropped() != 0 {
		t.Fatalf("aging out counted as dropped: %d", j.Dropped())
	}
	recs, err := j.Read(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != 20-oldest+1 {
		t.Fatalf("read %d records, want %d", len(recs), 20-oldest+1)
	}
	if vr := j.Verify(oldest, 20); !vr.OK {
		t.Fatalf("Verify over retained window: %+v", vr)
	}
}

// TestJournalAgeOutReleasesSegments checks that a segment aging out of
// a full window becomes garbage at once, so the memory ring holds Cap
// records and not up to twice as many until its array is reallocated.
func TestJournalAgeOutReleasesSegments(t *testing.T) {
	j, err := New(Config{Cap: 64, SegmentRecords: 4, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	fill(w, 64)
	for i := 0; i < 3*j.maxRing; i++ {
		j.mu.Lock()
		oldest := weak.Make(j.ring[0])
		j.mu.Unlock()
		fill(w, 4) // one rotation: the oldest segment ages out
		runtime.GC()
		if oldest.Value() != nil {
			t.Fatalf("rotation %d: the aged-out segment is still reachable", i)
		}
	}
	if oldest, newest, _ := j.Bounds(); newest-oldest+1 != 64 {
		t.Fatalf("window holds %d records, want 64", newest-oldest+1)
	}
}

// TestJournalCheckpoints exercises the periodic checkpoint machinery:
// KindCounts must count records strictly before each checkpoint.
func TestJournalCheckpoints(t *testing.T) {
	j, err := New(Config{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetCheckpointSource(func() Checkpoint {
		return Checkpoint{Accepted: 42}
	})
	fill(j.Writer(), 12)

	_, newest, _ := j.Bounds()
	recs, err := j.Read(1, newest)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Record
	for _, r := range recs {
		if r.Kind == KindCheckpoint {
			cps = append(cps, r)
		}
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoint records after 12 appends with CheckpointEvery=5")
	}
	for _, cp := range cps {
		if cp.Checkpoint == nil || len(cp.Checkpoint.KindCounts) != KindMax {
			t.Fatalf("checkpoint seq %d: malformed payload %+v", cp.Seq, cp.Checkpoint)
		}
		if cp.Checkpoint.Accepted != 42 {
			t.Fatalf("checkpoint seq %d: source snapshot not carried", cp.Seq)
		}
		var before [KindMax]uint64
		for _, r := range recs {
			if r.Seq < cp.Seq {
				before[r.Kind]++
			}
		}
		for k := 1; k < KindMax; k++ {
			if cp.Checkpoint.KindCounts[k] != before[k] {
				t.Fatalf("checkpoint seq %d: KindCounts[%v] = %d, records before it = %d",
					cp.Seq, Kind(k), cp.Checkpoint.KindCounts[k], before[k])
			}
		}
	}
	if vr := j.Verify(1, newest); !vr.OK {
		t.Fatalf("chain with checkpoints: %+v", vr)
	}
}

// TestJournalVerifyWindows pins the edge cases handlers lean on.
func TestJournalVerifyWindows(t *testing.T) {
	j, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fill(j.Writer(), 6)

	if vr := j.Verify(4, 2); vr.OK || !strings.Contains(vr.Detail, "bad range") {
		t.Fatalf("inverted range verified: %+v", vr)
	}
	if vr := j.Verify(100, 200); vr.OK || vr.Records != 0 {
		t.Fatalf("empty window verified: %+v", vr)
	}
	// A mid-chain window anchors at the retained predecessor.
	if vr := j.Verify(3, 5); !vr.OK || vr.Records != 3 {
		t.Fatalf("mid-chain window: %+v", vr)
	}
}

// TestWriterNil is the disabled-path contract: a nil Writer (or one
// around a nil journal) absorbs every call without panicking, so
// callers need no guards beyond Enabled for digest work.
func TestWriterNil(t *testing.T) {
	for _, w := range []*Writer{nil, {}} {
		if w.Enabled() {
			t.Fatal("nil-backed writer reports enabled")
		}
		w.Route([]int{0}, 1)
		w.Frame(0, []int{0}, []int{0}, 1)
		w.McastFrame(0, []int{0}, []int{0}, 1)
		w.Round(0, []int{0}, 1)
		w.McastRound(0, []int{0}, 1)
		w.Inject(0, []core.Fault{{Stage: 1, Switch: 1}})
		w.Fail(0)
		w.Restore(0)
		w.Checkpoint()
	}
}

// TestJournalClosedAppend pins Close semantics: appends after Close are
// dropped silently and the retained window stays readable.
func TestJournalClosedAppend(t *testing.T) {
	j, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := j.Writer()
	fill(w, 3)
	j.Close()
	fill(w, 3)
	_, newest, ok := j.Bounds()
	if !ok || newest != 3 {
		t.Fatalf("Bounds after close = (%d, %v), want (3, true)", newest, ok)
	}
	if vr := j.Verify(1, 3); !vr.OK {
		t.Fatalf("Verify after close: %+v", vr)
	}
}

// framePairs writes the i-th of a run of k-packet frames at N=n into
// srcs and dsts: distinct inputs and distinct outputs, spread over the
// whole port range so every vector packs one byte per entry.
func framePairs(i, n int, srcs, dsts []int) {
	for p := range srcs {
		srcs[p] = (i + p*n/len(srcs)) % n
		dsts[p] = (3*i + 5 + p*n/len(dsts)) % n
	}
}

// heapAfterGC returns the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRingBytes pins what the memory ring keeps per record: a
// default-cap journal filled past its cap with 16-packet frames at
// N=256 (118 B each on the wire) retains at most 140 B per record once
// garbage is collected. Sealed segments are trimmed to their records,
// offsets are 4 B, and the open segment is sized like the last sealed
// one.
func TestRingBytes(t *testing.T) {
	const n, k = 256, 16
	before := heapAfterGC()
	j, err := New(Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	srcs, dsts := make([]int, k), make([]int, k)
	for i := 0; i < 2*DefaultCap; i++ {
		framePairs(i, n, srcs, dsts)
		w.Frame(i&1, srcs, dsts, DigestPairs(srcs, dsts))
	}
	retained := heapAfterGC() - before
	oldest, newest, _ := j.Bounds()
	records := newest - oldest + 1
	if records != DefaultCap {
		t.Fatalf("window holds %d records, want %d", records, DefaultCap)
	}
	perRecord := float64(retained) / float64(records)
	t.Logf("%d records retain %d B: %.1f B per record", records, retained, perRecord)
	if perRecord > 140 {
		t.Fatalf("the ring retains %.1f B per 118-B record, want at most 140", perRecord)
	}
	runtime.KeepAlive(j)
}

// TestVerifyAllocs pins Verify's memory: it walks a full default-cap
// window record by record, decoding into one reused Record, so the
// whole walk allocates under 1 MB where materializing the window would
// take tens of MB. Checkpoints and a few full-permutation routes ride
// along so every decode path runs.
func TestVerifyAllocs(t *testing.T) {
	const n, k = 256, 16
	j, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetCheckpointSource(func() Checkpoint {
		return Checkpoint{Accepted: 1, Planes: make([]PlaneCheckpoint, 2)}
	})
	w := j.Writer()
	srcs, dsts := make([]int, k), make([]int, k)
	route := make([]int, n)
	for i := range route {
		route[i] = n - 1 - i
	}
	for i := 0; ; i++ {
		if seq, _ := j.Head(); seq >= DefaultCap {
			break
		}
		if i%97 == 0 {
			w.Route(route, DigestPerm(route))
			continue
		}
		framePairs(i, n, srcs, dsts)
		w.Frame(i&1, srcs, dsts, DigestPairs(srcs, dsts))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vr := j.Verify(1, DefaultCap)
	runtime.ReadMemStats(&ms1)
	if !vr.OK || vr.Records != DefaultCap {
		t.Fatalf("Verify = %+v, want an intact chain over %d records", vr, DefaultCap)
	}
	alloc := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("verifying %d records allocated %d B", vr.Records, alloc)
	if alloc >= 1<<20 {
		t.Fatalf("verifying %d records allocated %d B, want under 1 MB", vr.Records, alloc)
	}
}
