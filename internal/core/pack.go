package core

// Packed form for switch settings: stage-major bit words, bit i%64 of
// word s·W + i/64 set when switch (s, i) is crossed, where W =
// ⌈switches per stage / 64⌉ (Network.StageWords for a whole B(n)). A
// setting of N log N − N/2 switches takes that many bits, rounded up
// to whole words per stage. The setup kernels (SetupInto,
// SelfRouteInto) write this form directly, the engine's plan cache
// keeps every plan in it, and the flight recorder diffs it word
// against word. Pack and Unpack convert a States to and from it: the
// reference Setup unpacks the kernel's words, and tests pack the
// settings of reference evaluators to compare.
//
// A four-state (copy ladder) setting packs into two such word slices:
// lo holds each switch's state&1 and hi its broadcast bit, so
// McStraight, McCross, McBcastUpper and McBcastLower are (lo, hi) =
// (0,0), (1,0), (0,1) and (1,1).

// PackedLen returns the number of words Pack writes for st.
func (st States) PackedLen() int {
	if len(st) == 0 {
		return 0
	}
	return len(st) * stageWords(len(st[0]))
}

func stageWords(switches int) int { return (switches + 63) / 64 }

// Pack writes st into dst[:st.PackedLen()] and returns that slice.
// Every word is overwritten, so a dirty dst is fine. Each word is
// built in a register from its 64 switches and stored once.
func (st States) Pack(dst []uint64) []uint64 {
	dst = dst[:st.PackedLen()]
	for s, row := range st {
		words := dst[s*stageWords(len(row)) : (s+1)*stageWords(len(row))]
		for w := range words {
			var word uint64
			for i, crossed := range row[w*64 : min(w*64+64, len(row))] {
				var bit uint64
				if crossed {
					bit = 1
				}
				word |= bit << (uint(i) & 63)
			}
			words[w] = word
		}
	}
	return dst
}

// Unpack overwrites every switch of st from src, a setting Pack wrote
// for the same shape.
func (st States) Unpack(src []uint64) {
	for s, row := range st {
		words := src[s*stageWords(len(row)) : (s+1)*stageWords(len(row))]
		for i := range row {
			row[i] = words[i/64]>>(uint(i)&63)&1 == 1
		}
	}
}

// PackedLen returns the number of words McastStates.Pack writes into
// each of lo and hi.
func (st McastStates) PackedLen() int {
	if len(st) == 0 {
		return 0
	}
	return len(st) * stageWords(len(st[0]))
}

// Pack writes st into lo[:st.PackedLen()] and hi[:st.PackedLen()],
// overwriting every word, one word of each built in a register.
func (st McastStates) Pack(lo, hi []uint64) {
	for s, row := range st {
		base := s * stageWords(len(row))
		for w := 0; w*64 < len(row); w++ {
			var l, h uint64
			for i, state := range row[w*64 : min(w*64+64, len(row))] {
				l |= uint64(state&1) << (uint(i) & 63)
				h |= uint64(state>>1) << (uint(i) & 63)
			}
			lo[base+w], hi[base+w] = l, h
		}
	}
}
