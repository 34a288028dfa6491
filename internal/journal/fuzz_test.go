package journal

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzJournalDecode hardens the record decoder against arbitrary bytes:
// it must never panic, never over-read, and anything it accepts must
// re-encode to the identical bytes (the canonical-layout property the
// chain verifier depends on) and decode again to the same record.
func FuzzJournalDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(Encode(r))
	}
	// Start next to the vector codec's width boundaries and the
	// Inject record's stuck byte.
	for _, tc := range packedVectors {
		f.Add(Encode(&Record{Seq: 1, Kind: KindMcastFrame, Dest: tc.vals, Srcs: []int{0}}))
	}
	f.Add(Encode(&Record{Seq: 2, Kind: KindInject, Faults: []core.Fault{{Stage: 3, Switch: 5, StuckCrossed: true}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerSize+DigestSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := Decode(b)
		if err != nil {
			return
		}
		if n < headerSize+DigestSize || n > len(b) {
			t.Fatalf("Decode consumed %d bytes of %d", n, len(b))
		}
		enc := Encode(r)
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encode differs from accepted input:\n in: %x\nout: %x", b[:n], enc)
		}
		r2, n2, err := Decode(enc)
		if err != nil || n2 != n {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
		if !recordsEqual(r, r2) {
			t.Fatal("re-decode changed the record")
		}
	})
}
