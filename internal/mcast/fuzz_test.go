package mcast

import (
	"testing"

	"repro/internal/core"
)

// FuzzMulticastMapping drives FromEntries and the compiler with
// arbitrary entry encodings at N=8: two bytes per destination
// (source, destination), grouped by source byte. Invalid input —
// out-of-range ports, duplicate destinations, duplicate or empty
// sources — must be rejected; every accepted mapping must compile and
// deliver exactly the requested multiset at gate level.
func FuzzMulticastMapping(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 3})       // src 0 -> {1,2}, src 3 -> {3}
	f.Add([]byte{1, 0, 1, 0})             // duplicate destination
	f.Add([]byte{9, 0})                   // source out of range
	f.Add([]byte{0, 200})                 // destination out of range
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3}) // wide fan-out
	f.Add([]byte{})
	net := core.New(3)
	size := net.N()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 2*size*size {
			return
		}
		// Decode byte pairs into entries, grouping consecutive pairs
		// that share a source byte. No validation here — FromEntries
		// is the unit under test.
		var entries []Entry
		for i := 0; i+1 < len(raw); i += 2 {
			src, dst := int(int8(raw[i])), int(int8(raw[i+1]))
			if len(entries) > 0 && entries[len(entries)-1].Src == src {
				entries[len(entries)-1].Dsts = append(entries[len(entries)-1].Dsts, dst)
			} else {
				entries = append(entries, Entry{Src: src, Dsts: []int{dst}})
			}
		}
		if len(raw)%2 == 1 { // trailing source byte: empty destination set
			entries = append(entries, Entry{Src: int(int8(raw[len(raw)-1]))})
		}

		m, err := FromEntries(size, entries)
		if err != nil {
			// Rejected input must actually be invalid.
			seenDst := map[int]bool{}
			seenSrc := map[int]bool{}
			invalid := false
			for _, e := range entries {
				if e.Src < 0 || e.Src >= size || seenSrc[e.Src] || len(e.Dsts) == 0 {
					invalid = true
					break
				}
				seenSrc[e.Src] = true
				for _, d := range e.Dsts {
					if d < 0 || d >= size || seenDst[d] {
						invalid = true
						break
					}
					seenDst[d] = true
				}
				if invalid {
					break
				}
			}
			if !invalid {
				t.Fatalf("valid entries %+v rejected: %v", entries, err)
			}
			return
		}

		// Accepted: the compiled plan must deliver the exact multiset.
		p, err := Compile(net, m)
		if err != nil {
			t.Fatalf("accepted mapping %v failed to compile: %v", m, err)
		}
		res := p.Route(net)
		if !res.OK() {
			t.Fatalf("mapping %v misrouted %v (delivered %v)", m, res.Misrouted, res.Delivered)
		}
		outs, srcs := walkAssigned(net, p, m)
		for k, out := range outs {
			if srcs[k] != m[out] {
				t.Fatalf("mapping %v: backward walk disagrees at output %d", m, out)
			}
		}
	})
}
