package psetup

import (
	"testing"

	"repro/internal/core"
	"repro/internal/parsetup"
	"repro/internal/perm"
)

// FuzzParallelSetup drives the parallel cold setup with arbitrary
// destination vectors at N=8: one byte per entry, the vector's length
// is the input's length (capped). Invalid input — wrong length,
// duplicates, out-of-range entries — must come back as an error with
// no setting and no panic; every accepted permutation must produce
// words bit-identical to core.Network.SetupInto under both the
// degenerate one-worker schedule and a concurrent maximum-fan-out
// schedule, and must route at gate level. The round-modeling
// parsetup.Setup is held to the same no-panic, same-setting contract
// on the same inputs (it shares the error-not-panic fix).
func FuzzParallelSetup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})   // identity
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0})   // reversal
	f.Add([]byte{1, 0, 3, 2, 5, 4, 7, 6})   // F(n) member
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})   // duplicates
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 200}) // out of range
	f.Add([]byte{0, 1, 2})                  // short
	f.Add([]byte{})                         // empty
	net := core.New(3)
	size := net.N()
	serial := New(net, Config{Workers: 1, SerialCutoff: 2})
	wide := New(net, Config{Workers: 4, SerialCutoff: 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*size {
			return
		}
		d := make(perm.Perm, len(raw))
		for i, b := range raw {
			d[i] = int(int8(b))
		}
		valid := len(d) == size && d.Validate() == nil

		for name, r := range map[string]*Router{"serial": serial, "wide": wide} {
			words, err := r.Setup(d)
			if valid && err != nil {
				t.Fatalf("%s: rejected valid permutation %v: %v", name, d, err)
			}
			if !valid {
				if err == nil {
					t.Fatalf("%s: accepted invalid input %v", name, d)
				}
				if words != nil {
					t.Fatalf("%s: returned a setting alongside an error", name)
				}
				continue
			}
			assertIdentical(t, serialWords(net, d), words, name)
			if !realizes(net, d, words) {
				t.Fatalf("%s: setting does not realize %v", name, d)
			}
		}

		// parsetup shares the error-not-panic contract and the
		// bit-identity claim; hold both on the same input.
		st, _, err := parsetup.Setup(net, d)
		if valid != (err == nil) {
			t.Fatalf("parsetup: valid=%v but err=%v for %v", valid, err, d)
		}
		if valid {
			assertIdentical(t, serialWords(net, d), st.Pack(make([]uint64, st.PackedLen())), "parsetup")
		}
	})
}
