package main

import (
	"bytes"
	"encoding/json"
	"math"
)

// intList is the type of every int-array request field. A /route body
// at N=1024 is 1024 ints, and encoding/json's reflective slice decode
// costs several times a warm route's whole in-process work, so
// UnmarshalJSON parses the plain-integer arrays requests carry itself.
// Anything else — null, fractions, exponents, numbers of more than 18
// digits, strings, nesting — goes to json.Unmarshal into []int, so an
// intList field accepts exactly the inputs, and yields exactly the
// values, of a []int field.
type intList []int

// UnmarshalJSON implements json.Unmarshaler. encoding/json hands it a
// syntax-checked value, but a direct call on arbitrary bytes is safe
// too: anything the fast parser does not accept is left to
// json.Unmarshal, which reports the syntax error.
func (l *intList) UnmarshalJSON(data []byte) error {
	if v, ok := parseInts(data); ok {
		*l = v
		return nil
	}
	return json.Unmarshal(data, (*[]int)(l))
}

// intRows converts a decoded list of rows to the [][]int the collective
// API takes, keeping nil rows and a nil list nil.
func intRows(ls []intList) [][]int {
	if ls == nil {
		return nil
	}
	out := make([][]int, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

// parseInts parses data as one JSON array of integers, each an optional
// minus sign and at most 18 digits with no leading zero. ok is false
// for any other input.
func parseInts(data []byte) (v []int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	v = make([]int, 0, bytes.Count(data, []byte{','})+1)
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return v, skipSpace(data, i+1) == len(data)
	}
	for {
		var x int
		if x, i, ok = parseInt(data, i); !ok {
			return nil, false
		}
		v = append(v, x)
		if i = skipSpace(data, i); i == len(data) {
			return nil, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return v, skipSpace(data, i+1) == len(data)
		default:
			return nil, false
		}
	}
}

// parseInt reads one integer at data[i:] and returns it with the index
// just past its last digit.
func parseInt(data []byte, i int) (int, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && data[start] == '0' || u > math.MaxInt {
		return 0, i, false
	}
	if neg {
		return -int(u), i, true
	}
	return int(u), i, true
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
