// Package packed stores integer vectors at their value width: every
// entry of a vector takes the same number of little-endian bytes, the
// fewest of 1, 2 or 4 that hold the vector's largest entry. A
// permutation of up to 256 ports thus costs one byte per entry and one
// of up to 65,536 ports two. The journal's record codec writes its
// vectors this way (entries taken relative to the vector's minimum),
// and the engine's plan cache keeps each plan's destination vector
// this way.
package packed

import "encoding/binary"

// Width is the fewest bytes, of 1, 2 or 4, that hold span.
func Width(span uint32) int {
	switch {
	case span <= 0xff:
		return 1
	case span <= 0xffff:
		return 2
	}
	return 4
}

// Put writes entry i of a vector of width w.
func Put(raw []byte, w, i int, x uint32) {
	switch w {
	case 1:
		raw[i] = byte(x)
	case 2:
		binary.LittleEndian.PutUint16(raw[2*i:], uint16(x))
	default:
		binary.LittleEndian.PutUint32(raw[4*i:], x)
	}
}

// At reads entry i of a vector of width w.
func At(raw []byte, w, i int) uint32 {
	switch w {
	case 1:
		return uint32(raw[i])
	case 2:
		return uint32(binary.LittleEndian.Uint16(raw[2*i:]))
	}
	return binary.LittleEndian.Uint32(raw[4*i:])
}

// Equal reports whether raw, a vector of width w, holds exactly vals:
// len(vals) entries, entry i equal to vals[i] as an int. A value a
// width-w entry cannot hold (negative, or too large) is never equal,
// so vals need not be checked first.
//
// This compare runs on every plan-cache hit, so it checks one 8-byte
// word of raw at a time against the word the next 8/w values would
// pack to, with a loop per width; the remainder of a vector shorter
// than that goes entry by entry.
func Equal(raw []byte, w int, vals []int) bool {
	if len(raw) != w*len(vals) {
		return false
	}
	i := 0
	switch w {
	case 1:
		for ; i+8 <= len(vals); i += 8 {
			v, r := vals[i:i+8:i+8], raw[i:i+8:i+8]
			if uint(v[0]|v[1]|v[2]|v[3]|v[4]|v[5]|v[6]|v[7])>>8 != 0 ||
				binary.LittleEndian.Uint64(r) != uint64(v[0])|uint64(v[1])<<8|uint64(v[2])<<16|
					uint64(v[3])<<24|uint64(v[4])<<32|uint64(v[5])<<40|uint64(v[6])<<48|uint64(v[7])<<56 {
				return false
			}
		}
	case 2:
		for ; i+4 <= len(vals); i += 4 {
			v, r := vals[i:i+4:i+4], raw[2*i:2*i+8:2*i+8]
			if uint(v[0]|v[1]|v[2]|v[3])>>16 != 0 ||
				binary.LittleEndian.Uint64(r) != uint64(v[0])|uint64(v[1])<<16|uint64(v[2])<<32|uint64(v[3])<<48 {
				return false
			}
		}
	default:
		for ; i+2 <= len(vals); i += 2 {
			v, r := vals[i:i+2:i+2], raw[4*i:4*i+8:4*i+8]
			if uint(v[0]|v[1])>>32 != 0 || binary.LittleEndian.Uint64(r) != uint64(v[0])|uint64(v[1])<<32 {
				return false
			}
		}
	}
	for ; i < len(vals); i++ {
		if uint(vals[i])>>(8*w) != 0 || At(raw, w, i) != uint32(vals[i]) {
			return false
		}
	}
	return true
}
