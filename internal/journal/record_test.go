package journal

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
)

// sampleRecords returns one well-formed record of every kind, with the
// optional fields exercised (negative plane, -1 mapping entries, empty
// and non-empty fault sets, a populated checkpoint).
func sampleRecords() []*Record {
	return []*Record{
		{Seq: 1, Kind: KindRoute, Plane: -1, TimeNs: 100, Dest: []int{3, 2, 1, 0}, Delivered: 0xdead},
		{Seq: 2, Kind: KindFrame, Plane: 0, TimeNs: 200, Dest: []int{1, 0, 3, 2}, Srcs: []int{2, 0}, Delivered: 7},
		{Seq: 3, Kind: KindMcastFrame, Plane: 1, TimeNs: 300, Dest: []int{0, 0, -1, 1}, Srcs: []int{0, 1, 3}, Delivered: 9},
		{Seq: 4, Kind: KindRound, Plane: 1, TimeNs: 400, Dest: []int{0, 1, 2, 3}, Delivered: 11},
		{Seq: 5, Kind: KindMcastRound, Plane: 0, TimeNs: 500, Dest: []int{-1, -1, 2, 2}, Delivered: 13},
		{Seq: 6, Kind: KindInject, Plane: 1, TimeNs: 600,
			Faults: []core.Fault{{Stage: 2, Switch: 1, StuckCrossed: true}, {Stage: 0, Switch: 0}}},
		{Seq: 7, Kind: KindInject, Plane: 0, TimeNs: 700}, // empty set: heal
		{Seq: 8, Kind: KindFail, Plane: 1, TimeNs: 800},
		{Seq: 9, Kind: KindRestore, Plane: 1, TimeNs: 900},
		{Seq: 10, Kind: KindCheckpoint, Plane: -1, TimeNs: 1000, Checkpoint: &Checkpoint{
			KindCounts:     []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			EngineRequests: 17, EngineHits: 11, EngineMisses: 6,
			Accepted: 40, Delivered: 39, Lost: 1, Frames: 12,
			Planes: []PlaneCheckpoint{
				{Frames: 6, Packets: 20, Rounds: 2, Failovers: 1, RecorderDigest: 0xabc},
				{Frames: 6, Packets: 19, Rounds: 0, Failovers: 0, RecorderDigest: 0xdef},
			},
		}},
	}
}

func recordsEqual(a, b *Record) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind || a.Plane != b.Plane || a.TimeNs != b.TimeNs ||
		a.Delivered != b.Delivered || a.Digest != b.Digest {
		return false
	}
	intsEq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !intsEq(a.Dest, b.Dest) || !intsEq(a.Srcs, b.Srcs) || len(a.Faults) != len(b.Faults) {
		return false
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			return false
		}
	}
	if (a.Checkpoint == nil) != (b.Checkpoint == nil) {
		return false
	}
	if a.Checkpoint != nil {
		x, y := a.Checkpoint, b.Checkpoint
		if len(x.KindCounts) != len(y.KindCounts) || len(x.Planes) != len(y.Planes) {
			return false
		}
		for i := range x.KindCounts {
			if x.KindCounts[i] != y.KindCounts[i] {
				return false
			}
		}
		for i := range x.Planes {
			if x.Planes[i] != y.Planes[i] {
				return false
			}
		}
		if x.EngineRequests != y.EngineRequests || x.EngineHits != y.EngineHits ||
			x.EngineMisses != y.EngineMisses || x.Accepted != y.Accepted ||
			x.Delivered != y.Delivered || x.Lost != y.Lost || x.Frames != y.Frames {
			return false
		}
	}
	return true
}

// TestRecordRoundTrip pins the canonical layout: every kind encodes,
// decodes back field for field, and re-encodes to the identical bytes —
// the property Verify's re-encode-and-hash walk depends on.
func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		b := Encode(r)
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", r.Kind, err)
		}
		if n != len(b) {
			t.Fatalf("%v: decode consumed %d of %d bytes", r.Kind, n, len(b))
		}
		if !recordsEqual(r, got) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", r.Kind, r, got)
		}
		if again := Encode(got); !bytes.Equal(b, again) {
			t.Fatalf("%v: re-encode is not canonical", r.Kind)
		}
	}
}

// TestDecodeConcatenated decodes a stream of back-to-back records the
// way segment readers do.
func TestDecodeConcatenated(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = append(buf, Encode(r)...)
	}
	off := 0
	for i, want := range recs {
		got, n, err := Decode(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual(want, got) {
			t.Fatalf("record %d mismatch", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("stream decode consumed %d of %d bytes", off, len(buf))
	}
}

// TestDecodeErrors pins the decoder's rejection of malformed input: it
// must error, never panic or over-read.
func TestDecodeErrors(t *testing.T) {
	valid := Encode(sampleRecords()[0])
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", valid[:headerSize-1]},
		{"bad magic", append([]byte{0xff, 0xff}, valid[2:]...)},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] = 99
			return b
		}()},
		{"bad kind", func() []byte {
			b := append([]byte(nil), valid...)
			b[3] = byte(KindMax)
			return b
		}()},
		{"zero kind", func() []byte {
			b := append([]byte(nil), valid...)
			b[3] = 0
			return b
		}()},
		{"truncated payload", valid[:len(valid)-DigestSize-1]},
		{"missing digest", valid[:len(valid)-1]},
		{"oversized payload length", func() []byte {
			b := append([]byte(nil), valid...)
			b[24], b[25], b[26], b[27] = 0xff, 0xff, 0xff, 0x7f
			return b
		}()},
		{"stuck byte 2", func() []byte {
			// sampleRecords()[5] is an Inject; its first fault's stuck
			// byte follows the fault count, stage and switch.
			b := Encode(sampleRecords()[5])
			b[headerSize+12] = 2
			return b
		}()},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.buf); err == nil {
			t.Errorf("%s: Decode accepted malformed input", tc.name)
		}
	}
}

// packedVectors spans the vector codec's boundaries: the empty vector,
// one entry, the spans where the width switches (255/256 and
// 65535/65536), idle (-1) mapping entries, and the full int32 range.
var packedVectors = []struct {
	name  string
	vals  []int
	width int // 0 for the empty vector, which has no width byte
}{
	{"empty", []int{}, 0},
	{"single", []int{7}, 1},
	{"span 255", []int{300, 45, 46}, 1},
	{"span 256", []int{300, 44, 46}, 2},
	{"span 65535", []int{65535, 0, 9}, 2},
	{"span 65536", []int{65536, 0, 9}, 4},
	{"idle outputs", []int{-1, 255, -1, 0, 3}, 2},
	{"int32 extremes", []int{math.MaxInt32, 0, math.MinInt32}, 4},
}

// TestPackedVectors pins the vector codec at its boundaries: each
// vector takes the fewest bytes per entry, round-trips, and re-encodes
// byte for byte.
func TestPackedVectors(t *testing.T) {
	for _, tc := range packedVectors {
		r := &Record{Seq: 1, Kind: KindRoute, Plane: -1, Dest: tc.vals, Delivered: 3}
		b := Encode(r)
		vec := 4
		if len(tc.vals) > 0 {
			vec += 5 + tc.width*len(tc.vals)
			if got := int(b[headerSize+8]); got != tc.width {
				t.Errorf("%s: width byte %d, want %d", tc.name, got, tc.width)
			}
		}
		if want := headerSize + vec + 8 + DigestSize; len(b) != want {
			t.Errorf("%s: record is %d B, want %d", tc.name, len(b), want)
		}
		got, _, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !recordsEqual(r, got) {
			t.Fatalf("%s: round trip mismatch: in %v, out %v", tc.name, r.Dest, got.Dest)
		}
		if !bytes.Equal(b, Encode(got)) {
			t.Fatalf("%s: re-encode is not canonical", tc.name)
		}
	}
}

// packedVec lays out one vector field by hand, canonical or not:
// count, base, width, then the raw entry bytes.
func packedVec(count uint32, base int32, width byte, entries ...byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	b = binary.LittleEndian.AppendUint32(b, uint32(base))
	b = append(b, width)
	return append(b, entries...)
}

// routeWith frames vec as the Dest of a route record, followed by the
// delivery digest and a zero chain digest.
func routeWith(vec []byte) []byte {
	b := Encode(&Record{Seq: 1, Kind: KindRoute, Plane: -1})[:headerSize]
	binary.LittleEndian.PutUint32(b[24:], uint32(len(vec)+8))
	b = append(b, vec...)
	return append(b, make([]byte, 8+DigestSize)...)
}

// TestPackedVectorRejects pins canonical decoding: each way of
// spelling a vector other than appendInts's is rejected, and a hostile
// count never reaches an allocation.
func TestPackedVectorRejects(t *testing.T) {
	if _, _, err := Decode(routeWith(packedVec(2, 0, 1, 0, 255))); err != nil {
		t.Fatalf("canonical hand-built vector rejected: %v", err)
	}
	cases := []struct {
		name string
		vec  []byte
	}{
		{"width 0", packedVec(1, 5, 0)},
		{"width 3", packedVec(2, 0, 3, 0, 0, 0, 1, 0, 0)},
		{"width 2 for span 255", packedVec(2, 0, 2, 0, 0, 255, 0)},
		{"width 4 for span 65535", packedVec(2, 0, 4, 0, 0, 0, 0, 255, 255, 0, 0)},
		{"base below every entry", packedVec(2, 0, 1, 1, 2)},
		{"entry overflows int32", packedVec(2, math.MaxInt32-1, 1, 0, 2)},
		{"wide entry overflows int32", packedVec(2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0x80)},
		{"count beyond payload", packedVec(1000, 0, 1, 0, 1)},
		{"count at the uint32 limit", packedVec(math.MaxUint32, 0, 4, 0, 0, 0, 0)},
		{"count without base", binary.LittleEndian.AppendUint32(nil, 1)},
	}
	for _, tc := range cases {
		if _, _, err := Decode(routeWith(tc.vec)); err == nil {
			t.Errorf("%s: Decode accepted a non-canonical vector", tc.name)
		}
	}
}

// TestRecordFootprint pins the bytes one record costs at N=256, digest
// included: the permutation's entries are one byte each, and a mapping
// with idle outputs is two.
func TestRecordFootprint(t *testing.T) {
	const n = 256
	dest := make([]int, n)
	for i := range dest {
		dest[i] = n - 1 - i
	}
	mapping := append([]int(nil), dest...)
	mapping[5], mapping[9] = -1, -1
	j, err := New(Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := j.Writer()
	cases := []struct {
		name   string
		append func()
		want   int64
	}{
		{"route", func() { w.Route(dest, 1) }, 333},
		{"frame, 3 real inputs", func() { w.Frame(0, dest, []int{0, 7, 200}, 1) }, 342 + 3},
		{"mcast round, idle outputs", func() { w.McastRound(0, mapping, 1) }, 589},
	}
	for _, tc := range cases {
		before := j.Metrics().Bytes()
		tc.append()
		if got := j.Metrics().Bytes() - before; got != tc.want {
			t.Errorf("%s: record is %d B, want %d", tc.name, got, tc.want)
		}
	}
}
