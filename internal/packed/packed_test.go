package packed

import (
	"math"
	"testing"
)

// TestRoundTrip writes vectors at the width of their largest entry,
// at each width's boundary, and reads every entry back with At and
// the whole vector with Equal.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		max   int
		width int
	}{{0, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {math.MaxUint32, 4}} {
		vals := []int{tc.max, 0, tc.max / 2, 1 % (tc.max + 1)}
		w := Width(uint32(tc.max))
		if w != tc.width {
			t.Fatalf("Width(%d) = %d, want %d", tc.max, w, tc.width)
		}
		raw := make([]byte, w*len(vals))
		for i, v := range vals {
			Put(raw, w, i, uint32(v))
		}
		for i, v := range vals {
			if got := At(raw, w, i); int(got) != v {
				t.Fatalf("max %d: entry %d reads %d, want %d", tc.max, i, got, v)
			}
		}
		if !Equal(raw, w, vals) {
			t.Fatalf("max %d: Equal rejects the vector it was packed from", tc.max)
		}
	}
}

// TestEqualRejects checks, at every width, that Equal accepts a
// 19-entry vector (whole words and a remainder) packed from vals, and
// reads as unequal a vector of another length or one that differs in
// any single entry: by another value the width holds, by a negative
// value, by the width's first value out of range, or by a value whose
// low 32 bits match the stored entry.
func TestEqualRejects(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		top := 1<<(8*w) - 1
		vals := make([]int, 19)
		for i := range vals {
			vals[i] = (i * 37) % 200
		}
		vals[18] = top
		raw := make([]byte, w*len(vals))
		for i, v := range vals {
			Put(raw, w, i, uint32(v))
		}
		if !Equal(raw, w, vals) {
			t.Fatalf("width %d: Equal rejects the vector it was packed from", w)
		}
		if Equal(raw, w, vals[:18]) || Equal(raw, w, append(vals[:19:19], 0)) {
			t.Fatalf("width %d: Equal matched a vector of another length", w)
		}
		for p := range vals {
			for _, bad := range []int{(vals[p] + 1) % top, -1, top + 1, vals[p] + 1<<32} {
				other := append([]int(nil), vals...)
				other[p] = bad
				if Equal(raw, w, other) {
					t.Errorf("width %d: entry %d = %d matched stored %d", w, p, bad, vals[p])
				}
			}
		}
	}
}
