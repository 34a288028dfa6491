package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/perm"
)

// testLogger keeps the tracing middleware's request logs out of the
// test output.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine[int]) {
	srv, eng, _, _ := newTestServerFull(t, collective.Options{})
	return srv, eng
}

func newTestServerOpts(t *testing.T, colOpts collective.Options) (*httptest.Server, *engine.Engine[int]) {
	srv, eng, _, _ := newTestServerFull(t, colOpts)
	return srv, eng
}

func newTestServerFull(t *testing.T, colOpts collective.Options) (*httptest.Server, *engine.Engine[int], *fabric.Fabric[int], *obsState) {
	t.Helper()
	eng, err := engine.New[int](engine.Config{
		LogN:     4, // N = 16
		Recorder: netsim.NewRecorder(core.New(4), runtime.GOMAXPROCS(0)+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(16, 0) // keep every trace: tests inspect them
	fab, err := fabric.New[int](fabric.Config{LogN: 4, Planes: 2, VOQDepth: 2, Record: true}, newTracedDeliver(ring))
	if err != nil {
		t.Fatal(err)
	}
	col := collective.New[int](fab, colOpts)
	o := newObsState(eng, fab, col, nil, ring, 8, time.Millisecond, testLogger())
	srv := httptest.NewServer(newMux(eng, fab, col, o, nil))
	t.Cleanup(func() {
		srv.Close()
		o.hist.Stop()
		fab.Close()
		eng.Close()
	})
	return srv, eng, fab, o
}

func postRoute(t *testing.T, url string, body any) (*http.Response, routeResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/route", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr routeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rr
}

// TestRouteEndpoint routes the Fig. 4 bit-reversal twice: the first
// call computes a self-routed plan, the second must hit the cache.
func TestRouteEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	d := perm.BitReversal(4)

	resp, rr := postRoute(t, srv.URL, routeRequest{Dest: intList(d)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rr.Kind != "self-routed" || rr.CacheHit {
		t.Fatalf("first call: kind=%q hit=%v, want self-routed miss", rr.Kind, rr.CacheHit)
	}
	want := perm.Apply(d, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for i, v := range want {
		if rr.Data[i] != v {
			t.Fatalf("routed payload wrong at %d: got %v want %v", i, rr.Data, want)
		}
	}

	_, rr = postRoute(t, srv.URL, routeRequest{Dest: intList(d)})
	if !rr.CacheHit {
		t.Fatal("second identical request must be a cache hit")
	}
}

// TestRoutePayloadAndFallback sends an explicit payload with a non-F
// permutation and expects the looping fallback.
func TestRoutePayloadAndFallback(t *testing.T) {
	srv, _ := newTestServer(t)
	// Fig. 5's non-self-routable witness embedded in the identity.
	d := perm.Identity(16)
	d[0], d[1], d[2], d[3] = 1, 3, 2, 0
	if perm.InF(d) {
		t.Fatal("test premise: d must be outside F")
	}
	data := make([]int, 16)
	for i := range data {
		data[i] = 100 + i
	}
	resp, rr := postRoute(t, srv.URL, routeRequest{Dest: intList(d), Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rr.Kind != "looped" {
		t.Fatalf("non-F permutation should be looped, got %q", rr.Kind)
	}
	for i, dest := range d {
		if rr.Data[dest] != 100+i {
			t.Fatalf("payload element %d misplaced: %v", i, rr.Data)
		}
	}
}

// TestRouteErrors exercises the 400 paths.
func TestRouteErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	for name, body := range map[string]routeRequest{
		"wrong length": {Dest: []int{0, 1, 2}},
		"not a perm":   {Dest: []int{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
	} {
		resp, _ := postRoute(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/route", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestStatsAndHealth checks /stats reflects traffic and /healthz
// responds.
func TestStatsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	d := perm.PerfectShuffle(4)
	postRoute(t, srv.URL, routeRequest{Dest: intList(d)})
	postRoute(t, srv.URL, routeRequest{Dest: intList(d)})

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Requests != 2 || s.Hits != 1 || s.Misses != 1 || s.PlansCached != 1 {
		t.Fatalf("stats don't reflect traffic: %+v", s)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

func postSend(t *testing.T, url string, body any) (*http.Response, sendResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/send", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sendResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

// TestSendEndpoint pushes packets through the fabric path — single and
// batch forms — and checks the fabric stats reflect them.
func TestSendEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, sr := postSend(t, srv.URL, map[string]any{"src": 3, "dst": 9})
	if resp.StatusCode != http.StatusOK || sr.Accepted != 1 || sr.Rejected != 0 {
		t.Fatalf("single send: status %d, %+v", resp.StatusCode, sr)
	}

	batch := sendRequest{Packets: []sendPacket{{Src: 0, Dst: 5}, {Src: 1, Dst: 5}, {Src: 2, Dst: 7}}}
	resp, sr = postSend(t, srv.URL, batch)
	if resp.StatusCode != http.StatusOK || sr.Accepted != 3 {
		t.Fatalf("batch send: status %d, %+v", resp.StatusCode, sr)
	}

	// Malformed packets are 400s.
	for name, body := range map[string]any{
		"out of range": map[string]any{"src": 0, "dst": 99},
		"half packet":  map[string]any{"src": 0},
		"empty":        map[string]any{},
	} {
		resp, _ := postSend(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// The fabric delivers asynchronously; poll the stats endpoint.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hresp, err := http.Get(srv.URL + "/fabric/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fs fabric.Snapshot
		if err := json.NewDecoder(hresp.Body).Decode(&fs); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if fs.Delivered == 4 {
			if fs.Accepted != 4 || len(fs.Planes) != 2 || len(fs.VOQ.PerInput) != 16 {
				t.Fatalf("fabric stats malformed: %+v", fs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("packets not delivered in time: %+v", fs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postMulticast(t *testing.T, url string, body any) (*http.Response, multicastResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/multicast", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr multicastResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, mr
}

// TestMulticastEndpointRound routes one copy-network round from the
// fan-out entry form, checks the classification books, and then reads
// /debug/heatmap back: the serving plane's copy-ladder section must
// have recorded broadcast-state flips, and the binary stages none.
func TestMulticastEndpointRound(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, mr := postMulticast(t, srv.URL, multicastRequest{Entries: []multicastEntry{
		{Src: 3, Dsts: []int{0, 1, 2, 3}},
		{Src: 7, Dsts: []int{8}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if mr.Class != "multicast" || mr.Sources != 2 || mr.Assigned != 5 || mr.MaxFanout != 4 {
		t.Fatalf("classification books wrong: %+v", mr)
	}

	hresp, err := http.Get(srv.URL + "/debug/heatmap")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hm heatmapResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hm); err != nil {
		t.Fatal(err)
	}
	if hm.LadderStages != 4 {
		t.Fatalf("ladder_stages = %d, want 4", hm.LadderStages)
	}
	if mr.Plane >= len(hm.Planes) {
		t.Fatalf("serving plane %d missing from heatmap: %+v", mr.Plane, hm.Planes)
	}
	pl := hm.Planes[mr.Plane]
	var ladderBcast int64
	for _, st := range pl.Ladder {
		for _, v := range st.Bcast {
			ladderBcast += v
		}
	}
	if ladderBcast == 0 {
		t.Fatalf("plane %d ladder recorded no broadcast flips: %+v", mr.Plane, pl.Ladder)
	}
	for _, st := range pl.Stages {
		for sw, v := range st.Bcast {
			if v != 0 {
				t.Fatalf("binary stage %d switch %d has bcast flips %d", st.Stage, sw, v)
			}
		}
	}
}

// TestMulticastEndpointMap drives round mode with an explicit
// output-major mapping, including the degenerate permutation case.
func TestMulticastEndpointMap(t *testing.T) {
	srv, _ := newTestServer(t)
	m := make([]int, 16)
	for i := range m {
		m[i] = fabric.Idle
	}
	m[0], m[1], m[15] = 5, 5, 5
	resp, mr := postMulticast(t, srv.URL, multicastRequest{Map: m})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if mr.Class != "multicast" || mr.Sources != 1 || mr.Assigned != 3 || mr.MaxFanout != 3 {
		t.Fatalf("map round books wrong: %+v", mr)
	}

	// A full permutation is a legal (fan-out 1) mapping too.
	d := perm.BitReversal(4)
	resp, mr = postMulticast(t, srv.URL, multicastRequest{Map: intList(d)})
	if resp.StatusCode != http.StatusOK || mr.Class != "permutation" || mr.MaxFanout != 1 {
		t.Fatalf("permutation map: status %d %+v", resp.StatusCode, mr)
	}
}

// TestMulticastEndpointPacket sends fan-out packets through the VOQ
// path and polls the fabric stats until every copy is delivered.
func TestMulticastEndpointPacket(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, mr := postMulticast(t, srv.URL, multicastRequest{Packet: true, Entries: []multicastEntry{
		{Src: 2, Dsts: []int{4, 5, 6}},
		{Src: 9, Dsts: []int{0}},
	}})
	if resp.StatusCode != http.StatusOK || mr.Accepted != 2 || mr.Rejected != 0 {
		t.Fatalf("packet admit: status %d, %+v", resp.StatusCode, mr)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		hresp, err := http.Get(srv.URL + "/fabric/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fs fabric.Snapshot
		if err := json.NewDecoder(hresp.Body).Decode(&fs); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if fs.Mcast.Delivered == 2 {
			if fs.Mcast.Accepted != 2 || fs.Mcast.Copies != 4 {
				t.Fatalf("multicast books wrong: %+v", fs.Mcast)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("multicast packets not delivered in time: %+v", fs.Mcast)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMulticastValidation sweeps the 400 surface of /multicast.
func TestMulticastValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	idle := make([]int, 16)
	for i := range idle {
		idle[i] = fabric.Idle
	}
	short := []int{0, 1}
	cases := []struct {
		name string
		req  multicastRequest
	}{
		{"map and entries", multicastRequest{Map: idle, Entries: []multicastEntry{{Src: 0, Dsts: []int{1}}}}},
		{"packet without entries", multicastRequest{Packet: true}},
		{"source out of range", multicastRequest{Entries: []multicastEntry{{Src: 16, Dsts: []int{1}}}}},
		{"destination out of range", multicastRequest{Entries: []multicastEntry{{Src: 0, Dsts: []int{16}}}}},
		{"output claimed twice", multicastRequest{Entries: []multicastEntry{
			{Src: 0, Dsts: []int{3}}, {Src: 1, Dsts: []int{3}}}}},
		{"map wrong length", multicastRequest{Map: short}},
		{"map assigns nothing", multicastRequest{Map: idle}},
		{"packet source out of range", multicastRequest{Packet: true,
			Entries: []multicastEntry{{Src: 99, Dsts: []int{1}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postMulticast(t, srv.URL, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}

	// Raw bodies: malformed JSON, and an empty entry list, which
	// marshaling a multicastRequest would drop under omitempty.
	for _, body := range []string{`{nope`, `{"packet":true,"entries":[]}`} {
		resp, err := http.Post(srv.URL+"/multicast", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func postCollective(t *testing.T, url string, body any) (*http.Response, collectiveResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/collective", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr collectiveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, cr
}

// TestCollectiveEndpoint submits an all-to-all over HTTP and checks
// the result is the transpose of the payload matrix, every round took
// the self-routed path, and /collective/stats reflects the traffic.
func TestCollectiveEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 16
	data := make([]intList, n)
	for p := range data {
		data[p] = make([]int, n)
		for c := range data[p] {
			data[p][c] = p*100 + c
		}
	}
	resp, cr := postCollective(t, srv.URL, collectiveRequest{Op: "alltoall", Data: data})
	if resp.StatusCode != http.StatusOK || !cr.Done {
		t.Fatalf("status %d done=%v", resp.StatusCode, cr.Done)
	}
	for p := 0; p < n; p++ {
		for c := 0; c < n; c++ {
			if cr.Result[p][c] != c*100+p {
				t.Fatalf("result[%d][%d] = %d, want %d", p, c, cr.Result[p][c], c*100+p)
			}
		}
	}
	if cr.Stats.SelfRouted != int64(n) || cr.Stats.Fallbacks != 0 {
		t.Fatalf("round tally %+v, want all %d rounds self-routed", cr.Stats, n)
	}

	sresp, err := http.Get(srv.URL + "/collective/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st collective.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Rounds != n || st.SelfRouteRatio != 1.0 {
		t.Fatalf("collective stats: %+v", st)
	}
	if st.PerOp["alltoall"] != 1 {
		t.Fatalf("per-op counts: %v", st.PerOp)
	}
}

// TestCollectiveBroadcastAndTranspose exercises the parameterized ops
// through the HTTP layer.
func TestCollectiveBroadcastAndTranspose(t *testing.T) {
	srv, _ := newTestServer(t)
	data := make([]intList, 16)
	data[6] = []int{41, 43}
	resp, cr := postCollective(t, srv.URL, collectiveRequest{Op: "broadcast", Root: 6, Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast status %d", resp.StatusCode)
	}
	for p, row := range cr.Result {
		if row[0] != 41 || row[1] != 43 {
			t.Fatalf("port %d received %v", p, row)
		}
	}

	tdata := make([]intList, 16)
	for p := range tdata {
		tdata[p] = []int{p}
	}
	resp, cr = postCollective(t, srv.URL, collectiveRequest{Op: "transpose", Rows: 4, Cols: 4, Data: tdata})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transpose status %d", resp.StatusCode)
	}
	for r := 0; r < 4; r++ {
		for q := 0; q < 4; q++ {
			if cr.Result[q*4+r][0] != r*4+q {
				t.Fatalf("transpose result wrong at (%d,%d): %v", r, q, cr.Result)
			}
		}
	}
}

// TestCollectiveAllGatherAndFanOut exercises the multicast-backed
// collective ops through the HTTP layer.
func TestCollectiveAllGatherAndFanOut(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 16
	data := make([]intList, n)
	for p := range data {
		data[p] = []int{p * 10}
	}
	resp, cr := postCollective(t, srv.URL, collectiveRequest{Op: "allgather", Data: data})
	if resp.StatusCode != http.StatusOK || !cr.Done {
		t.Fatalf("allgather: status %d done=%v", resp.StatusCode, cr.Done)
	}
	for p := 0; p < n; p++ {
		for j := 0; j < n; j++ {
			if cr.Result[p][j] != j*10 {
				t.Fatalf("allgather result[%d][%d] = %d, want %d", p, j, cr.Result[p][j], j*10)
			}
		}
	}

	dests := make([]intList, n)
	dests[0] = []int{4, 5}
	dests[1] = []int{4}
	fdata := make([]intList, n)
	fdata[0] = []int{100}
	fdata[1] = []int{200}
	resp, cr = postCollective(t, srv.URL, collectiveRequest{Op: "fanout", Dests: dests, Data: fdata})
	if resp.StatusCode != http.StatusOK || !cr.Done {
		t.Fatalf("fanout: status %d done=%v", resp.StatusCode, cr.Done)
	}
	want := make([][]int, n)
	want[4] = []int{100, 200}
	want[5] = []int{100}
	for p := range want {
		if len(cr.Result[p]) != len(want[p]) {
			t.Fatalf("fanout result[%d] = %v, want %v", p, cr.Result[p], want[p])
		}
		for c := range want[p] {
			if cr.Result[p][c] != want[p][c] {
				t.Fatalf("fanout result[%d] = %v, want %v", p, cr.Result[p], want[p])
			}
		}
	}
}

// TestCollectiveValidation is the table-driven 400 sweep: malformed
// specs must be rejected with a JSON error before any round is routed.
func TestCollectiveValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	mk := func(ports, chunks int) []intList {
		d := make([]intList, ports)
		for p := range d {
			d[p] = make([]int, chunks)
		}
		return d
	}
	cases := []struct {
		name string
		req  collectiveRequest
	}{
		{"unknown op", collectiveRequest{Op: "reduce", Data: mk(16, 16)}},
		{"allgather wrong chunk width", collectiveRequest{Op: "allgather", Data: mk(16, 16)}},
		{"fanout subscriber out of range", collectiveRequest{Op: "fanout",
			Dests: append([]intList{{16}}, mk(15, 0)...), Data: append([]intList{{7}}, mk(15, 0)...)}},
		{"fanout duplicate subscriber", collectiveRequest{Op: "fanout",
			Dests: append([]intList{{3, 3}}, mk(15, 0)...), Data: append([]intList{{7}}, mk(15, 0)...)}},
		{"empty op", collectiveRequest{Op: "", Data: mk(16, 16)}},
		{"non-power-of-two ports", collectiveRequest{Op: "alltoall", Data: mk(10, 10)}},
		{"wrong port count", collectiveRequest{Op: "alltoall", Data: mk(8, 8)}},
		{"wrong chunk width", collectiveRequest{Op: "alltoall", Data: mk(16, 4)}},
		{"ragged rows", collectiveRequest{Op: "shuffle", Data: append(mk(15, 2), make([]int, 3))}},
		{"transpose bad tiling", collectiveRequest{Op: "transpose", Rows: 3, Cols: 5, Data: mk(16, 1)}},
		{"transpose zero sides", collectiveRequest{Op: "transpose", Data: mk(16, 1)}},
		{"broadcast root out of range", collectiveRequest{Op: "broadcast", Root: 16, Data: mk(16, 1)}},
		{"broadcast empty root row", collectiveRequest{Op: "broadcast", Root: 0, Data: mk(16, 0)}},
		{"gather negative root", collectiveRequest{Op: "gather", Root: -1, Data: mk(16, 1)}},
		{"scatter root out of range", collectiveRequest{Op: "scatter", Root: 99, Data: mk(16, 0)}},
		{"exchange dest out of range", collectiveRequest{Op: "exchange",
			Dests: append([]intList{{16}}, mk(15, 0)...), Data: append([]intList{{7}}, mk(15, 0)...)}},
		{"exchange duplicate dest", collectiveRequest{Op: "exchange",
			Dests: append([]intList{{3, 3}}, mk(15, 0)...), Data: append([]intList{{7, 8}}, mk(15, 0)...)}},
		{"exchange wrong spec size", collectiveRequest{Op: "exchange", Dests: mk(4, 1), Data: mk(16, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postCollective(t, srv.URL, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}

	// Malformed JSON is a 400 too.
	resp, err := http.Post(srv.URL+"/collective", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestCollectiveDeadline arms admission with a huge seeded round
// estimate: a tight deadline_ms must be rejected with 503.
func TestCollectiveDeadline(t *testing.T) {
	srv, _ := newTestServerOpts(t, collective.Options{RoundEstimate: time.Hour})
	data := make([]intList, 16)
	for p := range data {
		data[p] = make([]int, 16)
	}
	resp, _ := postCollective(t, srv.URL, collectiveRequest{Op: "alltoall", Data: data, DeadlineMs: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 admission reject", resp.StatusCode)
	}
}

// TestCollectiveStream requests NDJSON progress: at least one progress
// record, then a done record carrying the result.
func TestCollectiveStream(t *testing.T) {
	srv, _ := newTestServer(t)
	data := make([]intList, 16)
	for p := range data {
		data[p] = make([]int, 16)
		for c := range data[p] {
			data[p][c] = p ^ c
		}
	}
	raw, _ := json.Marshal(collectiveRequest{Op: "alltoall", Data: data, Stream: true})
	resp, err := http.Post(srv.URL+"/collective", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("want at least one progress record plus the done record, got %d lines", len(lines))
	}
	for _, rec := range lines[:len(lines)-1] {
		if _, ok := rec["completed"]; !ok {
			t.Fatalf("progress record missing 'completed': %v", rec)
		}
	}
	last := lines[len(lines)-1]
	if last["done"] != true || last["error"] != nil {
		t.Fatalf("final record: %v", last)
	}
	result, ok := last["result"].([]any)
	if !ok || len(result) != 16 {
		t.Fatalf("final record result malformed: %v", last["result"])
	}
	row3 := result[3].([]any)
	if int(row3[5].(float64)) != 5^3 {
		t.Fatalf("streamed result wrong: result[3][5] = %v, want %d", row3[5], 5^3)
	}
}

// TestGracefulShutdown drives the real serve loop: cancelling the
// context must drain HTTP, the fabric, and the engine, and leave the
// listener closed.
func TestGracefulShutdown(t *testing.T) {
	eng, err := engine.New[int](engine.Config{LogN: 4})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := fabric.New[int](fabric.Config{LogN: 4, Planes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, nil, obs.NewTraceRing(4, 0), 4, time.Second, testLogger())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, eng, fab, col, o, nil, timeouts{readHeader: readHeaderTimeout, idle: idleTimeout, shutdown: 5 * time.Second})
	}()

	url := "http://" + ln.Addr().String()
	// Traffic through both layers while the server is up.
	resp, rr := postRoute(t, url, routeRequest{Dest: intList(perm.BitReversal(4))})
	if resp.StatusCode != http.StatusOK || rr.Kind != "self-routed" {
		t.Fatalf("route before shutdown: status %d, %+v", resp.StatusCode, rr)
	}
	if resp, sr := postSend(t, url, map[string]any{"src": 1, "dst": 14}); resp.StatusCode != http.StatusOK || sr.Accepted != 1 {
		t.Fatalf("send before shutdown: status %d, %+v", resp.StatusCode, sr)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}

	// Everything behind the server must be stopped: the engine rejects,
	// the fabric rejects, the port no longer accepts.
	if resp := eng.Route(perm.BitReversal(4), make([]int, 16)); !errors.Is(resp.Err, engine.ErrClosed) {
		t.Fatalf("engine should be closed, got %v", resp.Err)
	}
	if err := fab.Send(fabric.Packet[int]{Src: 0, Dst: 1}); !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("fabric should be closed, got %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener should be closed after shutdown")
	}
	// The packet accepted before shutdown must have been drained, not
	// dropped.
	if s := fab.Stats(); s.Delivered != 1 || s.Lost != 0 {
		t.Fatalf("accepted packet must survive the drain: %+v", s)
	}
}

// TestServeClosesStalledHeader holds one connection open mid-header on
// a server with a short header timeout: the server must close it, while
// a normal /route on the same server still succeeds.
func TestServeClosesStalledHeader(t *testing.T) {
	eng, err := engine.New[int](engine.Config{LogN: 4})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := fabric.New[int](fabric.Config{LogN: 4, Planes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, nil, obs.NewTraceRing(4, 0), 4, time.Second, testLogger())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, eng, fab, col, o, nil, timeouts{readHeader: 200 * time.Millisecond, idle: time.Second, shutdown: 5 * time.Second})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /route HTTP/1.1\r\nHost: benesd\r\n"); err != nil {
		t.Fatal(err)
	}

	url := "http://" + ln.Addr().String()
	resp, rr := postRoute(t, url, routeRequest{Dest: intList(perm.BitReversal(4))})
	if resp.StatusCode != http.StatusOK || rr.Kind != "self-routed" {
		t.Fatalf("route beside a stalled connection: status %d, %+v", resp.StatusCode, rr)
	}

	// The server closes the stalled connection without a reply; the
	// read deadline only bounds the test if it does not.
	if err := stalled.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(stalled)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open after 10s (header timeout 200ms), read %q", reply)
	}
}

// scrapeMetrics fetches /metrics and returns the response plus its
// lines, failing the test on transport errors.
func scrapeMetrics(t *testing.T, url string) (*http.Response, []string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestMetricsEndpoint drives traffic through all three layers and
// smoke-scrapes /metrics: the exposition must carry the Prometheus
// content type, parse line by line, and include a populated histogram
// for every pipeline stage the traffic exercised.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	// Engine traffic.
	postRoute(t, srv.URL, routeRequest{Dest: intList(perm.BitReversal(4))})
	// Fabric traffic, delivered before we scrape.
	if _, sr := postSend(t, srv.URL, map[string]any{"src": 2, "dst": 11}); sr.Accepted != 1 {
		t.Fatal("send not accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/fabric/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fs fabric.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fs.Delivered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("packet not delivered: %+v", fs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Collective traffic.
	data := make([]intList, 16)
	for p := range data {
		data[p] = make([]int, 16)
	}
	if resp, _ := postCollective(t, srv.URL, collectiveRequest{Op: "alltoall", Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("collective status %d", resp.StatusCode)
	}

	resp, lines := scrapeMetrics(t, srv.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}

	// Every line must be a comment or a sample "name[{labels}] value".
	counts := map[string]float64{}
	for _, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", ln, err)
		}
		series := ln[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", ln)
			}
			// counts aggregates by metric name across label sets.
			series = series[:i]
		}
		counts[series] += v
	}

	// One histogram per pipeline stage, each populated by the traffic
	// above.
	populated := []string{
		"benes_engine_plan_seconds", "benes_engine_apply_seconds",
		"benes_fabric_voq_wait_seconds", "benes_fabric_match_seconds",
		"benes_fabric_plane_seconds",
		"benes_collective_round_seconds", "benes_collective_op_seconds",
	}
	for _, h := range populated {
		if counts[h+"_count"] < 1 {
			t.Errorf("histogram %s not populated: count %v", h, counts[h+"_count"])
		}
		if counts[h+"_bucket"] < 1 {
			t.Errorf("histogram %s has no bucket samples", h)
		}
	}
	if got := counts["benes_fabric_delivered_total"]; got != 1 {
		t.Errorf("benes_fabric_delivered_total = %v, want 1", got)
	}
	if got := counts["benes_collective_completed_total"]; got != 1 {
		t.Errorf("benes_collective_completed_total = %v, want 1", got)
	}
	if got := counts["benes_fabric_healthy_planes"]; got != 2 {
		t.Errorf("benes_fabric_healthy_planes = %v, want 2", got)
	}
}

// getTraces fetches and decodes /debug/traces.
func getTraces(t *testing.T, url string) obs.RingSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs obs.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// spanStages tallies a trace's spans by stage name.
func spanStages(tr obs.TraceSnapshot) map[string]int {
	m := map[string]int{}
	for _, sp := range tr.Spans {
		m[sp.Stage]++
	}
	return m
}

// TestTracesEndpoint reconstructs requests stage by stage from
// /debug/traces: a /collective request must surface with one span per
// round plus the end-to-end span, and a /send request with VOQ-wait
// and plane-transit spans once its packet is delivered.
func TestTracesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 16
	data := make([]intList, n)
	for p := range data {
		data[p] = make([]int, n)
	}
	if resp, _ := postCollective(t, srv.URL, collectiveRequest{Op: "alltoall", Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("collective status %d", resp.StatusCode)
	}
	if _, sr := postSend(t, srv.URL, map[string]any{"src": 7, "dst": 2}); sr.Accepted != 1 {
		t.Fatal("send not accepted")
	}

	// Both traces land asynchronously: the collective's when the
	// middleware drops the last reference, the send's when the fabric
	// delivers the packet. Poll until both are visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := getTraces(t, srv.URL)
		var col, send *obs.TraceSnapshot
		for i := range rs.Traces {
			switch rs.Traces[i].Name {
			case "/collective":
				col = &rs.Traces[i]
			case "/send":
				send = &rs.Traces[i]
			}
		}
		if col != nil && send != nil {
			st := spanStages(*col)
			if st["round"] != n {
				t.Fatalf("/collective trace has %d round spans, want %d: %+v", st["round"], n, col.Spans)
			}
			if st["collective_alltoall"] != 1 {
				t.Fatalf("/collective trace missing end-to-end span: %+v", col.Spans)
			}
			if col.DurNs <= 0 {
				t.Fatal("/collective trace has no pinned duration")
			}
			st = spanStages(*send)
			for _, stage := range []string{"admit", "voq_wait", "plane_transit"} {
				if st[stage] != 1 {
					t.Fatalf("/send trace missing %q span: %+v", stage, send.Spans)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("traces not observed in time: %+v", rs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSendTraceFolds sends one 256-packet /send and reads its trace
// back: the request's spans follow its stages, not its packets — one
// admit, one voq_wait folding all 256 waits, and at most one
// plane_transit per plane, whose counts sum to 256.
func TestSendTraceFolds(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 16
	var batch sendRequest
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			batch.Packets = append(batch.Packets, sendPacket{Src: src, Dst: dst})
		}
	}
	if resp, sr := postSend(t, srv.URL, batch); resp.StatusCode != http.StatusOK || sr.Accepted != n*n {
		t.Fatalf("send: status %d, %+v", resp.StatusCode, sr)
	}
	// The trace lands once the last packet is delivered.
	var send *obs.TraceSnapshot
	for deadline := time.Now().Add(5 * time.Second); send == nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/send trace not observed in time")
		}
		rs := getTraces(t, srv.URL)
		for i := range rs.Traces {
			if rs.Traces[i].Name == "/send" {
				send = &rs.Traces[i]
			}
		}
	}
	st := spanStages(*send)
	if st["admit"] != 1 || st["voq_wait"] != 1 || len(st) != 3 {
		t.Fatalf("/send trace stages %v, want one admit, one voq_wait and plane_transit only: %+v", st, send.Spans)
	}
	transits := 0
	planes := map[string]bool{}
	for _, sp := range send.Spans {
		switch sp.Stage {
		case "voq_wait":
			if sp.Count != n*n || sp.MaxNs > sp.SumNs || sp.MaxNs > sp.DurNs {
				t.Fatalf("voq_wait span %+v, want count %d with max <= sum and max <= dur", sp, n*n)
			}
		case "plane_transit":
			if planes[sp.Note] || (sp.Note != "plane 0" && sp.Note != "plane 1") {
				t.Fatalf("plane_transit note %q repeated or not a plane: %+v", sp.Note, send.Spans)
			}
			planes[sp.Note] = true
			transits += int(sp.Count)
		}
	}
	if transits != n*n {
		t.Fatalf("plane_transit counts sum to %d, want %d: %+v", transits, n*n, send.Spans)
	}
}

// fabricAccepted reads the accepted-packet total from /fabric/stats.
func fabricAccepted(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/fabric/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs fabric.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	return fs.Accepted
}

// TestMalformedBatchAdmitsNothing sends batches whose valid packets or
// entries come before a malformed one: each must be a 400 that leaves
// the fabric's accepted count where it was, so no valid prefix is
// admitted and later delivered.
func TestMalformedBatchAdmitsNothing(t *testing.T) {
	srv, _ := newTestServer(t)
	if resp, sr := postSend(t, srv.URL, map[string]any{"src": 3, "dst": 9}); resp.StatusCode != http.StatusOK || sr.Accepted != 1 {
		t.Fatalf("baseline send: status %d, %+v", resp.StatusCode, sr)
	}
	before := fabricAccepted(t, srv.URL)
	resp, _ := postSend(t, srv.URL, sendRequest{Packets: []sendPacket{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}, {Src: 2, Dst: 99}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/send with an out-of-range last packet: status %d, want 400", resp.StatusCode)
	}
	for name, entries := range map[string][]multicastEntry{
		"source out of range":    {{Src: 0, Dsts: []int{1, 2}}, {Src: 99, Dsts: []int{3}}},
		"destination repeated":   {{Src: 0, Dsts: []int{1, 2}}, {Src: 1, Dsts: []int{4, 4}}},
		"no destinations":        {{Src: 0, Dsts: []int{1, 2}}, {Src: 1}},
		"destination past n - 1": {{Src: 0, Dsts: []int{1, 2}}, {Src: 1, Dsts: []int{16}}},
	} {
		resp, _ := postMulticast(t, srv.URL, multicastRequest{Packet: true, Entries: entries})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("packet-mode /multicast, %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if after := fabricAccepted(t, srv.URL); after != before {
		t.Fatalf("rejected batches admitted %d packets", after-before)
	}
}

// TestComputeReadiness covers the pure readiness rules: hard outages
// flip ready off, partial trouble only adds degraded reasons.
func TestComputeReadiness(t *testing.T) {
	healthy := fabric.Health{PlanesTotal: 2, PlanesHealthy: 2, VOQOccupied: 0, VOQCapacity: 64}
	cases := []struct {
		name      string
		h         fabric.Health
		ready     bool
		nDegraded int
	}{
		{"all clear", healthy, true, 0},
		{"one plane down", fabric.Health{PlanesTotal: 2, PlanesHealthy: 1, VOQCapacity: 64}, true, 1},
		{"no planes", fabric.Health{PlanesTotal: 2, PlanesHealthy: 0, VOQCapacity: 64}, false, 1},
		{"voq half", fabric.Health{PlanesTotal: 2, PlanesHealthy: 2, VOQOccupied: 32, VOQCapacity: 64}, true, 1},
		{"voq full", fabric.Health{PlanesTotal: 2, PlanesHealthy: 2, VOQOccupied: 64, VOQCapacity: 64}, false, 1},
		{"everything wrong", fabric.Health{PlanesTotal: 2, PlanesHealthy: 0, VOQOccupied: 64, VOQCapacity: 64}, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := computeReadiness(tc.h)
			if r.Ready != tc.ready || len(r.Degraded) != tc.nDegraded {
				t.Fatalf("computeReadiness = %+v, want ready=%v with %d reasons", r, tc.ready, tc.nDegraded)
			}
		})
	}
}

// TestReadyzEndpoint walks /readyz through the plane-failure ladder:
// fully healthy, degraded-but-ready, and 503 with no plane in rotation.
func TestReadyzEndpoint(t *testing.T) {
	srv, _, fab, _ := newTestServerFull(t, collective.Options{})
	get := func() (int, readiness) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r readiness
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r
	}

	if code, r := get(); code != http.StatusOK || !r.Ready || len(r.Degraded) != 0 {
		t.Fatalf("fresh server: code %d, %+v", code, r)
	}
	if err := fab.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	if code, r := get(); code != http.StatusOK || !r.Ready || len(r.Degraded) != 1 {
		t.Fatalf("one plane down: code %d, %+v, want ready with one degraded reason", code, r)
	}
	if err := fab.FailPlane(1); err != nil {
		t.Fatal(err)
	}
	if code, r := get(); code != http.StatusServiceUnavailable || r.Ready {
		t.Fatalf("all planes down: code %d, %+v, want 503 not-ready", code, r)
	}
	if err := fab.RestorePlane(0); err != nil {
		t.Fatal(err)
	}
	if code, r := get(); code != http.StatusOK || !r.Ready {
		t.Fatalf("after restore: code %d, %+v", code, r)
	}
}

// TestHeatmapEndpointExact pins the full /debug/heatmap body, byte for
// byte, for a fully deterministic B(2) server: one plane,
// exactly one bit-reversal routed. The self-routed setting for
// (0,2,1,3) is switch 1 crossed in all three stages, so against the
// all-straight power-on state the recorder must show one flip at
// switch 1 per stage, two traversals per switch from the single full
// vector, and an untouched plane recorder.
func TestHeatmapEndpointExact(t *testing.T) {
	eng, err := engine.New[int](engine.Config{
		LogN:     2,
		Recorder: netsim.NewRecorder(core.New(2), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(4, 0)
	fab, err := fabric.New[int](fabric.Config{LogN: 2, Planes: 1, Record: true}, newTracedDeliver(ring))
	if err != nil {
		t.Fatal(err)
	}
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, nil, ring, 4, time.Hour, testLogger())
	srv := httptest.NewServer(newMux(eng, fab, col, o, nil))
	t.Cleanup(func() {
		srv.Close()
		fab.Close()
		eng.Close()
	})

	if resp, rr := postRoute(t, srv.URL, routeRequest{Dest: intList(perm.BitReversal(2))}); resp.StatusCode != http.StatusOK || rr.Kind != "self-routed" {
		t.Fatalf("route: status %d, %+v", resp.StatusCode, rr)
	}

	resp, err := http.Get(srv.URL + "/debug/heatmap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	engStage := func(s, cb int) string {
		return `{"stage":` + strconv.Itoa(s) + `,"control_bit":` + strconv.Itoa(cb) +
			`,"traversed":[2,2],"flips":[0,1],"forced":[0,0],"fault_hits":[0,0],"bcast_flips":[0,0],` +
			`"summary":{"max":2,"mean":2,"total":4,"skew":1,"gini":0}}`
	}
	idleStage := func(s, cb int) string {
		return `{"stage":` + strconv.Itoa(s) + `,"control_bit":` + strconv.Itoa(cb) +
			`,"traversed":[0,0],"flips":[0,0],"forced":[0,0],"fault_hits":[0,0],"bcast_flips":[0,0],` +
			`"summary":{"max":0,"mean":0,"total":0,"skew":0,"gini":0}}`
	}
	// Ladder stage j decides address bit logN-1-j (MSB first): control
	// bits 1, 0 for the two B(2) ladder stages. No multicast was routed,
	// so every ladder section is all zeros but still present.
	want := `{"n":4,"stages":3,"switches_per_stage":2,"ladder_stages":2,` +
		`"engine":[` + engStage(0, 0) + `,` + engStage(1, 1) + `,` + engStage(2, 0) + `],` +
		`"engine_ladder":[` + idleStage(0, 1) + `,` + idleStage(1, 0) + `],` +
		`"planes":[{"plane":0,"stages":[` + idleStage(0, 0) + `,` + idleStage(1, 1) + `,` + idleStage(2, 0) + `],` +
		`"ladder":[` + idleStage(0, 1) + `,` + idleStage(1, 0) + `]}]}` + "\n"
	if string(body) != want {
		t.Fatalf("heatmap body mismatch:\n got: %s\nwant: %s", body, want)
	}
}

// TestHeatmapEndpointShape checks the standard test server reports the
// full geometry: all 2n-1 stages x N/2 switches for the engine and for
// every plane.
func TestHeatmapEndpointShape(t *testing.T) {
	srv, _ := newTestServer(t)
	postRoute(t, srv.URL, routeRequest{Dest: intList(perm.BitReversal(4))})

	resp, err := http.Get(srv.URL + "/debug/heatmap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hm heatmapResponse
	if err := json.NewDecoder(resp.Body).Decode(&hm); err != nil {
		t.Fatal(err)
	}
	if hm.N != 16 || hm.Stages != 7 || hm.SwitchesPerStage != 8 {
		t.Fatalf("geometry: %+v, want N=16 stages=7 switches=8", hm)
	}
	if len(hm.Engine) != 7 {
		t.Fatalf("engine rows = %d, want all 2n-1 = 7 stages", len(hm.Engine))
	}
	for _, st := range hm.Engine {
		if len(st.Traversed) != 8 || len(st.Flips) != 8 || len(st.Forced) != 8 || len(st.FaultHits) != 8 {
			t.Fatalf("stage %d rows must span all N/2 = 8 switches: %+v", st.Stage, st)
		}
		// One full vector traversed: two tags per switch, eight switches.
		if st.Summary.Total != 16 {
			t.Fatalf("stage %d total = %d, want 2 traversals x 8 switches = 16", st.Stage, st.Summary.Total)
		}
	}
	if len(hm.Planes) != 2 {
		t.Fatalf("planes = %d, want 2", len(hm.Planes))
	}
	for _, pl := range hm.Planes {
		if len(pl.Stages) != 7 {
			t.Fatalf("plane %d rows = %d, want 7", pl.Plane, len(pl.Stages))
		}
	}
}

// TestObservabilityScrapeStress hammers routing and /send concurrently
// with /debug/heatmap, /debug/history, and /metrics scrapes while the
// history sampler runs — the -race exercise for the whole flight
// recorder read path against live writers.
func TestObservabilityScrapeStress(t *testing.T) {
	srv, eng, _, o := newTestServerFull(t, collective.Options{})
	o.hist.Start()
	t.Cleanup(o.hist.Stop)

	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if resp := eng.Route(perm.Random(16, rng), make([]int, 16)); resp.Err != nil {
					t.Error(resp.Err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			postSend(t, srv.URL, map[string]any{"src": i % 16, "dst": (i * 7) % 16})
		}
	}()
	for _, path := range []string{"/debug/heatmap", "/debug/history", "/metrics", "/readyz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Wait()

	// The history ring sampled throughout; a windowed report must decode
	// and carry series once at least two samples landed.
	resp, err := http.Get(srv.URL + "/debug/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr obs.WindowReport
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if wr.Samples < 2 || len(wr.Series) == 0 {
		t.Fatalf("history report after stress: %d samples, %d series", wr.Samples, len(wr.Series))
	}
	if resp, err := http.Get(srv.URL + "/debug/history?window=banana"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
		}
	}
}
