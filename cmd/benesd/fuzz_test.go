package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// fabricBooks is the slice of /fabric/stats that FuzzServeMux balances.
type fabricBooks struct {
	Accepted  int64 `json:"accepted"`
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
	Mcast     struct {
		Accepted int64 `json:"accepted"`
		Copies   int64 `json:"copies"`
	} `json:"mcast"`
	VOQ struct {
		Occupied int64 `json:"occupied"`
	} `json:"voq"`
}

// FuzzServeMux sends a fuzzed method and body to /route, /send,
// /multicast (round or packet mode, as the body says) or /fabric/stats
// on a fresh newMux server at N=8 with two planes, as benesd runs it
// (recorder on, tail drop at depth 2). The request must not panic and
// must answer with a documented status: 200, 400, 404, 405, 429 or 503.
// Once the fabric drains, /fabric/stats must show nothing queued and
// nothing lost, and every accepted packet delivered once per copy: a
// multicast packet counts once in accepted and once per copy in
// delivered, so delivered = accepted − mcast.accepted + mcast.copies.
func FuzzServeMux(f *testing.F) {
	// Every method goes to every endpoint, so wrong methods meet the
	// mux's 405 too.
	methods := []string{http.MethodPost, http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodHead}
	paths := []string{"/route", "/send", "/multicast", "/fabric/stats"}
	for _, s := range []struct {
		method, path uint8
		body         string
	}{
		{0, 0, `{"dest":[0,4,2,6,1,5,3,7]}`},
		{0, 0, `{"dest":[1,0,2,3,4,5,6,7],"data":[9,9,9,9,9,9,9,9]}`},
		{0, 0, `{"dest":[0,0,2,3,4,5,6,7]}`},
		{0, 1, `{"src":0,"dst":7}`},
		{0, 1, `{"packets":[{"src":1,"dst":2},{"src":1,"dst":2},{"src":1,"dst":2},{"src":3,"dst":2}]}`},
		{0, 1, `{"src":3}`},
		{0, 1, `{"packets":[{"src":1,"dst":8}]}`},
		{0, 2, `{"entries":[{"src":3,"dsts":[0,1,2,3]},{"src":7,"dsts":[6]}]}`},
		{0, 2, `{"map":[7,6,5,4,3,2,1,0]}`},
		{0, 2, `{"map":[-1,-1,-1,-1,-1,-1,-1,-1]}`},
		{0, 2, `{"packet":true,"entries":[{"src":2,"dsts":[4,5,6]},{"src":2,"dsts":[4]},{"src":2,"dsts":[7]}]}`},
		{0, 2, `{"packet":true,"entries":[]}`},
		{0, 2, `{"packet":true,"entries":[{"src":0,"dsts":[1,1]}]}`},
		{1, 3, ``},
		{0, 3, `{}`},
		{1, 1, `{"src":0,"dst":1}`},
		{2, 2, `not json`},
	} {
		f.Add(s.method, s.path, s.body)
	}
	f.Fuzz(func(t *testing.T, method, path uint8, body string) {
		eng, err := engine.New[int](engine.Config{LogN: 3, Recorder: netsim.NewRecorder(core.New(3), runtime.GOMAXPROCS(0)+1)})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ring := obs.NewTraceRing(4, 0)
		fab, err := fabric.New[int](fabric.Config{LogN: 3, Planes: 2, VOQDepth: 2, Record: true}, newTracedDeliver(ring))
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		col := collective.New[int](fab, collective.Options{})
		o := newObsState(eng, fab, col, nil, ring, 2, time.Hour, testLogger())
		defer o.hist.Stop()
		mux := newMux(eng, fab, col, o, nil)

		m, p := methods[int(method)%len(methods)], paths[int(path)%len(paths)]
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(m, p, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %s %q answered %d: %s", m, p, body, rec.Code, rec.Body)
		}

		fab.Close()
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fabric/stats", nil))
		var b fabricBooks
		if err := json.NewDecoder(rec.Body).Decode(&b); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("/fabric/stats after %s %s %q: %d, %v", m, p, body, rec.Code, err)
		}
		if b.VOQ.Occupied != 0 || b.Lost != 0 || b.Delivered != b.Accepted-b.Mcast.Accepted+b.Mcast.Copies {
			t.Fatalf("books after %s %s %q do not balance: %+v", m, p, body, b)
		}
	})
}
