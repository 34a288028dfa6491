package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// FuzzIntList holds intList to the []int decode it replaces: through
// json.Unmarshal the two give the same error-or-not and, without an
// error, the same value (nil and empty kept apart). A direct
// UnmarshalJSON call on the raw bytes — no syntax check first — must
// not panic and must agree with json.Unmarshal into []int in full.
func FuzzIntList(f *testing.F) {
	for _, seed := range []string{
		`[]`, `[0,1,2]`, ` [ 3 , -4 ]` + "\n", `null`, `[-0]`, `[1.5]`, `[1e3]`, `[01]`, `[-]`,
		`[999999999999999999]`, `[9223372036854775807]`, `[-9223372036854775808]`,
		`[99999999999999999999]`, `[1,]`, `[,1]`, `[1 2]`, `["a"]`, `[null]`, `[[1]]`,
		`{}`, `7`, `[1]x`, `[1`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int
		wantErr := json.Unmarshal(data, &want)
		var got intList
		gotErr := json.Unmarshal(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: intList err %v, []int err %v", data, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual([]int(got), want) {
			t.Fatalf("%q: intList %#v, []int %#v", data, []int(got), want)
		}

		var direct intList
		directErr := direct.UnmarshalJSON(data)
		var ref []int
		refErr := json.Unmarshal(data, &ref)
		if (directErr == nil) != (refErr == nil) || !reflect.DeepEqual([]int(direct), ref) {
			t.Fatalf("%q: direct UnmarshalJSON %#v, %v; []int %#v, %v", data, []int(direct), directErr, ref, refErr)
		}
	})
}

// TestIntListFields decodes the request bodies the handlers take and
// checks each int-array field against a []int mirror of its struct:
// absent and null fields stay nil, an empty array stays empty, and a
// non-integer element fails the whole body.
func TestIntListFields(t *testing.T) {
	type mirror struct {
		Dest  []int   `json:"dest"`
		Map   []int   `json:"map"`
		Data  [][]int `json:"data"`
		Dests [][]int `json:"dests"`
	}
	type fields struct {
		Dest  intList   `json:"dest"`
		Map   intList   `json:"map"`
		Data  []intList `json:"data"`
		Dests []intList `json:"dests"`
	}
	for _, body := range []string{
		`{"dest":[3,1,0,2]}`,
		`{"dest":[],"map":null}`,
		`{"data":[[1,2],null,[]],"dests":[[-1]]}`,
		`{"dest":[1,2.5]}`,
		`{"data":[[1],["x"]]}`,
		`{"map":"0,1"}`,
	} {
		var want mirror
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		var got fields
		gotErr := json.NewDecoder(strings.NewReader(body)).Decode(&got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: intList err %v, []int err %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual([]int(got.Dest), want.Dest) || !reflect.DeepEqual([]int(got.Map), want.Map) ||
			!reflect.DeepEqual(intRows(got.Data), want.Data) || !reflect.DeepEqual(intRows(got.Dests), want.Dests) {
			t.Fatalf("%s: decoded %+v, want %+v", body, got, want)
		}
	}
}

// BenchmarkDecode times the request decodes: a /route body at N=1024
// through parseRoute into a reused vector as /route serves it, and
// through encoding/json's decode with the intList fields, which /route
// falls back to and /collective serves a 64x64 alltoall body with.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dest, _ := json.Marshal(map[string][]int{"dest": rng.Perm(1024)})
	b.Run("route-n1024-parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(dest)))
		var d []int
		for i := 0; i < b.N; i++ {
			var ok bool
			if d, ok = parseRoute(dest, d[:0]); !ok {
				b.Fatal("parseRoute refused the body")
			}
		}
	})
	rows := make([][]int, 64)
	for p := range rows {
		rows[p] = rng.Perm(64)
	}
	alltoall, _ := json.Marshal(map[string]any{"op": "alltoall", "data": rows})
	for _, bc := range []struct {
		name string
		body []byte
		into func() any
	}{
		{"route-n1024", dest, func() any { return new(routeRequest) }},
		{"alltoall-64x64", alltoall, func() any { return new(collectiveRequest) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if err := json.NewDecoder(bytes.NewReader(bc.body)).Decode(bc.into()); err != nil {
					b.Fatal(fmt.Errorf("%s: %w", bc.name, err))
				}
			}
		})
	}
}
