package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/perm"
)

// FuzzRouteBody holds /route to the encoding/json edge it replaced, at
// N=8. parseRoute first: a body it accepts must decode through
// json.Decoder into a []int mirror of routeRequest, to the same dest
// and no "data" (a body it refuses goes to encoding/json in the
// handler); the pooled vector it appends to starts dirty. Then the
// whole handler: any body within routeBodyLimit, sent twice (a miss,
// then a hit), must get jsonRoute's status and reply bytes, each side
// on its own engine.
func FuzzRouteBody(f *testing.F) {
	for _, seed := range []string{
		`{"dest":[0,4,2,6,1,5,3,7]}`, `{"dest":[1,3,2,0,4,5,6,7],"data":[-9,1,2,3,4,5,6,99999]}`,
		`{"dest":[0,4,2,6,1,5,3,7],"data":[]}`, `{"dest":[0,0,2,3,4,5,6,7]}`, `{"dest":[7,6,5,4,3,2,1,0],"data":[1]}`,
		`{"dest":[1,0,3,2]}`, `{"dest":[1,0,3,2],"data":[-7,8,9,10]}`, ` { "dest" : [ 0 ] , "data" : [ ] } ` + "\n",
		`{"dest":[]}`, `{"dest":[0],"data":null}`, `{"data":[1],"dest":[0]}`, `{"DEST":[0]}`, `{"dest":[0],"dest":[1]}`,
		`{"dest":[0]} {}`, `{"dest":[0]}x`, `{"dest":[0],}`, `{"dest":[1.5]}`, `{"dest":[01]}`,
		`{"dest":[99999999999999999999]}`, `{"dest":[0],"data":[1],"x":2}`, `{"dest":[0]}`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if dest, ok := parseRoute(body, []int{-1, -2, -3}[:0]); ok {
			var want struct {
				Dest []int `json:"dest"`
				Data []int `json:"data"`
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
				t.Fatalf("%q: parseRoute accepted what encoding/json rejects: %v", body, err)
			}
			if want.Data != nil || len(dest) != len(want.Dest) || len(dest) > 0 && !reflect.DeepEqual(dest, want.Dest) {
				t.Fatalf("%q: parseRoute dest %v, encoding/json dest %v data %v", body, dest, want.Dest, want.Data)
			}
		}
		if len(body) > routeBodyLimit(8) {
			return
		}
		s := &server{eng: newRouteEngine(t), log: testLogger(), identity: perm.Identity(8), routeLimit: routeBodyLimit(8)}
		ref := newRouteEngine(t)
		for range 2 {
			rec := httptest.NewRecorder()
			s.handleRoute(rec, httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader(body)))
			code, reply := jsonRoute(ref, body)
			if rec.Code != code || rec.Body.String() != reply {
				t.Fatalf("%q: answered %d %q, encoding/json edge %d %q", body, rec.Code, rec.Body, code, reply)
			}
		}
	})
}

// newRouteEngine is an N=8 engine with a recorder, as benesd runs it.
func newRouteEngine(t *testing.T) *engine.Engine[int] {
	eng, err := engine.New[int](engine.Config{LogN: 3, Recorder: netsim.NewRecorder(core.New(3), 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// jsonRoute serves body as /route did over encoding/json, decoding
// with json.Decoder and answering through json.Encoder, and returns
// the status and reply bytes.
func jsonRoute(eng *engine.Engine[int], body []byte) (int, string) {
	var out bytes.Buffer
	reply := func(code int, v any) (int, string) {
		if err := json.NewEncoder(&out).Encode(v); err != nil {
			panic(err)
		}
		return code, out.String()
	}
	var req routeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return reply(http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad JSON: %v", err)})
	}
	if req.Data == nil {
		req.Data = make([]int, len(req.Dest))
		for i := range req.Data {
			req.Data[i] = i
		}
	}
	resp := eng.Route(perm.Perm(req.Dest), req.Data)
	if resp.Err != nil {
		return reply(http.StatusBadRequest, map[string]string{"error": resp.Err.Error()})
	}
	return reply(http.StatusOK, routeResponse{Data: resp.Data, Kind: resp.Kind.String(), CacheHit: resp.CacheHit})
}

// TestRouteReplyBytes checks the /route reply against the bytes
// json.Encoder writes for the same routeResponse: for a self-routed and
// a looped plan, each a miss then a hit on a fresh server, with and
// without "data", in a body parseRoute reads (dest alone) and in ones
// it leaves to encoding/json ("data" present, one more key). The reply
// also declares its length.
func TestRouteReplyBytes(t *testing.T) {
	looped := perm.Identity(16)
	looped[0], looped[1], looped[2], looped[3] = 1, 3, 2, 0 // Fig. 5's witness: outside F
	payload := []int{math.MinInt64, math.MaxInt64, -1, 0, 1, 10, -10, 1 << 40, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, c := range []struct {
		kind string
		dest perm.Perm
	}{{"self-routed", perm.BitReversal(4)}, {"looped", looped}} {
		for _, withData := range []bool{false, true} {
			data := perm.Identity(16)
			fast := routeRequest{Dest: intList(c.dest)}
			slow := map[string]any{"dest": c.dest, "note": "x"}
			if withData {
				data, fast.Data, slow["data"] = payload, payload, payload
			}
			for k, body := range []any{fast, slow} {
				raw, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := parseRoute(raw, nil); ok != (k == 0 && !withData) {
					t.Fatalf("%s: parseRoute reads it: %v", raw, ok)
				}
				checkRouteReplies(t, raw, perm.Apply(c.dest, data), c.kind)
			}
		}
	}
}

// checkRouteReplies posts raw to /route on a fresh server twice, a miss
// then a hit, and checks each reply against json.Encoder's bytes.
func checkRouteReplies(t *testing.T, raw []byte, routed []int, kind string) {
	t.Helper()
	srv, _ := newTestServer(t)
	var want bytes.Buffer
	for _, hit := range []bool{false, true} {
		resp, err := http.Post(srv.URL+"/route", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(routeResponse{Data: routed, Kind: kind, CacheHit: hit}); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || got.String() != want.String() {
			t.Fatalf("%s, hit %v: status %d, reply\n%s want\n%s", raw, hit, resp.StatusCode, got.String(), want.String())
		}
		if resp.ContentLength != int64(want.Len()) {
			t.Fatalf("%s, hit %v: Content-Length %d, reply %d bytes", raw, hit, resp.ContentLength, want.Len())
		}
	}
}

// TestRouteBodyLimit answers 413 to a /route body one byte over the
// bound and serves one at the bound, both padded with whitespace.
func TestRouteBodyLimit(t *testing.T) {
	srv, eng := newTestServer(t)
	limit := routeBodyLimit(eng.Network().N())
	body := `{"dest":[0,8,4,12,2,10,6,14,1,9,5,13,3,11,7,15]}`
	for _, c := range []struct {
		size int
		code int
	}{{limit, http.StatusOK}, {limit + 1, http.StatusRequestEntityTooLarge}} {
		padded := body + strings.Repeat(" ", c.size-len(body))
		resp, err := http.Post(srv.URL+"/route", "application/json", strings.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("%d-byte body (bound %d): status %d, want %d", c.size, limit, resp.StatusCode, c.code)
		}
	}
}

// BenchmarkRouteReply writes the /route reply at N=1024, append-built
// into a reused buffer against json.Encoder's.
func BenchmarkRouteReply(b *testing.B) {
	data := rand.New(rand.NewSource(1)).Perm(1024)
	want := appendRouteReply(nil, data, "looped", true)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(want)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendRouteReply(buf[:0], data, "looped", true)
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(want)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(routeResponse{Data: data, Kind: "looped", CacheHit: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
