package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/journal/replay"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/perm"
)

// newJournalTestServer mirrors newTestServerFull with journaling on —
// the -journal wiring main performs, compressed for tests.
func newJournalTestServer(t *testing.T) (*httptest.Server, *journal.Journal) {
	t.Helper()
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	jw := j.Writer()
	eng, err := engine.New[int](engine.Config{
		LogN:     4,
		Recorder: netsim.NewRecorder(core.New(4), runtime.GOMAXPROCS(0)+1),
		Journal:  jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(16, 0)
	fab, err := fabric.New[int](fabric.Config{LogN: 4, Planes: 2, VOQDepth: 2, Record: true, Journal: jw}, newTracedDeliver(ring))
	if err != nil {
		t.Fatal(err)
	}
	j.SetCheckpointSource(fab.JournalCheckpoint)
	col := collective.New[int](fab, collective.Options{})
	o := newObsState(eng, fab, col, j, ring, 8, time.Millisecond, testLogger())
	srv := httptest.NewServer(newMux(eng, fab, col, o, j))
	t.Cleanup(func() {
		srv.Close()
		o.hist.Stop()
		fab.Close()
		eng.Close()
		j.Close()
	})
	return srv, j
}

func postReplay(t *testing.T, url string, body any) (*http.Response, *replay.Report) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/debug/replay", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rep := &replay.Report{}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rep
}

// TestJournalEndpoints drives the full operator loop over HTTP: traffic
// through /route and /multicast, then the NDJSON dump, the chain
// verification, the replay audit, and the journal series on /metrics.
func TestJournalEndpoints(t *testing.T) {
	srv, _ := newJournalTestServer(t)

	for i := 0; i < 3; i++ {
		if resp, rr := postRoute(t, srv.URL, routeRequest{Dest: intList(perm.BitReversal(4))}); resp.StatusCode != http.StatusOK || rr.Kind != "self-routed" {
			t.Fatalf("route %d: status %d, %+v", i, resp.StatusCode, rr)
		}
	}
	m := make([]int, 16)
	for i := range m {
		m[i] = fabric.Idle
	}
	m[2], m[9] = 5, 5
	raw, _ := json.Marshal(multicastRequest{Map: m})
	if resp, err := http.Post(srv.URL+"/multicast", "application/json", bytes.NewReader(raw)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("multicast round: %v status %v", err, resp.StatusCode)
	}

	// NDJSON dump: one parseable line per record, sequence-ordered.
	resp, err := http.Get(srv.URL + "/debug/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/journal status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []journalRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var jr journalRecord
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, jr)
	}
	if len(lines) != 4 {
		t.Fatalf("dumped %d records, want 4 (3 routes + 1 mcast round)", len(lines))
	}
	for i, l := range lines {
		if l.Seq != uint64(i+1) || l.Digest == "" {
			t.Fatalf("line %d: %+v", i, l)
		}
	}
	if lines[0].Kind != "route" || lines[3].Kind != "mcast_round" {
		t.Fatalf("kinds = %q ... %q", lines[0].Kind, lines[3].Kind)
	}

	// Chain verification.
	vresp, err := http.Get(srv.URL + "/debug/journal/verify")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vr journal.VerifyResult
	if err := json.NewDecoder(vresp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vresp.StatusCode != http.StatusOK || !vr.OK || vr.Records != 4 {
		t.Fatalf("verify: status %d, %+v", vresp.StatusCode, vr)
	}

	// Replay audit: zero divergences.
	rresp, rep := postReplay(t, srv.URL, replayRequest{})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/replay status %d", rresp.StatusCode)
	}
	if !rep.Clean() || rep.Replayed != 4 {
		t.Fatalf("replay: %+v", rep)
	}

	// The journal series are on /metrics, and a clean journal leaves
	// /readyz undegraded.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, series := range []string{"benes_journal_appended_total", "benes_journal_chain_verifies_total", "benes_journal_replay_divergences_total"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if resp, rd := getReadiness(t, srv.URL); resp.StatusCode != http.StatusOK || len(rd.Degraded) != 0 {
		t.Fatalf("readyz with a healthy journal: status %d, %+v", resp.StatusCode, rd)
	}
}

// TestJournalEndpointValidation is the table of requests the handlers
// must refuse with a 400 — bad ranges, inverted windows, verification
// and replay against an empty journal — in the same style as the other
// debug endpoints.
func TestJournalEndpointValidation(t *testing.T) {
	srv, _ := newJournalTestServer(t)
	empty := srv // no traffic has been journaled yet

	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"dump empty journal", http.MethodGet, "/debug/journal", ""},
		{"verify empty journal", http.MethodGet, "/debug/journal/verify", ""},
		{"replay empty journal", http.MethodPost, "/debug/replay", "{}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doJSON(t, empty.URL, tc.method, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}

	// Journal one record so range validation is reachable.
	if resp, _ := postRoute(t, srv.URL, routeRequest{Dest: intList(perm.BitReversal(4))}); resp.StatusCode != http.StatusOK {
		t.Fatalf("route: status %d", resp.StatusCode)
	}
	rangeCases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"non-numeric from", http.MethodGet, "/debug/journal?from=abc", ""},
		{"zero from", http.MethodGet, "/debug/journal?from=0", ""},
		{"non-numeric to", http.MethodGet, "/debug/journal?to=xyz", ""},
		{"inverted range", http.MethodGet, "/debug/journal?from=5&to=2", ""},
		{"verify non-numeric from", http.MethodGet, "/debug/journal/verify?from=1e3", ""},
		{"verify inverted range", http.MethodGet, "/debug/journal/verify?from=9&to=3", ""},
		{"replay bad JSON", http.MethodPost, "/debug/replay", "{"},
		{"replay inverted range", http.MethodPost, "/debug/replay", `{"from":7,"to":3}`},
	}
	for _, tc := range rangeCases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doJSON(t, srv.URL, tc.method, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

func doJSON(t *testing.T, base, method, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestJournalEndpointsDisabled: without -journal every journal endpoint
// answers 404, pointing at the flag.
func TestJournalEndpointsDisabled(t *testing.T) {
	srv, _ := newTestServer(t) // no journal wired
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/debug/journal", ""},
		{http.MethodGet, "/debug/journal/verify", ""},
		{http.MethodPost, "/debug/replay", "{}"},
	} {
		if resp := doJSON(t, srv.URL, tc.method, tc.path, tc.body); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestJournalDegradations pins the readiness ladder contribution: data
// loss against the spill contract degrades, a standing spill backlog
// degrades, and a healthy journal adds nothing — never a 503.
func TestJournalDegradations(t *testing.T) {
	if got := journalDegradations(0, 0); len(got) != 0 {
		t.Fatalf("healthy journal degraded: %v", got)
	}
	if got := journalDegradations(3, 0); len(got) != 1 || !strings.Contains(got[0], "dropped 3") {
		t.Fatalf("dropped records not reported: %v", got)
	}
	if got := journalDegradations(0, 2); len(got) != 1 || !strings.Contains(got[0], "backlog 2") {
		t.Fatalf("spill backlog not reported: %v", got)
	}
	if got := journalDegradations(1, 1); len(got) != 2 {
		t.Fatalf("want both reasons: %v", got)
	}
}

// ndjsonSink is an http.ResponseWriter that keeps the status and the
// body, with nothing buffered beyond the body itself.
type ndjsonSink struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *ndjsonSink) Header() http.Header         { return w.header }
func (w *ndjsonSink) WriteHeader(status int)      { w.status = status }
func (w *ndjsonSink) Write(p []byte) (int, error) { return w.body.Write(p) }

// dumpJournal runs the /debug/journal handler over j's whole window.
func dumpJournal(j *journal.Journal, w http.ResponseWriter) {
	s := &server{jrn: j, log: testLogger()}
	s.handleDebugJournal(w, httptest.NewRequest(http.MethodGet, "/debug/journal", nil))
}

// TestJournalDumpStreams dumps 4,096 route records at N=256. The body
// must be byte for byte the records Journal.Read returns, one
// json.Encoder line each, and the handler must allocate under 1 KB a
// record: it encodes each record inside Journal.Scan's visit, one
// reused Record at a time. Decoding the whole window first, as Read
// does, allocates ~2.2 KB a record, 2 KB of it the destination vector.
// Under -race the byte budget is not held: encoding/json's pooled
// encoder state is then dropped at random and regrown per line.
func TestJournalDumpStreams(t *testing.T) {
	j, err := journal.New(journal.Config{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const records = 4096
	rng := rand.New(rand.NewSource(30))
	jw := j.Writer()
	for i := 0; i < records; i++ {
		d := perm.Random(256, rng)
		jw.Route(d, journal.DigestPerm(d))
	}
	recs, err := j.Read(1, records)
	if err != nil || len(recs) != records {
		t.Fatalf("Read: %d records, %v", len(recs), err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, rec := range recs {
		if err := enc.Encode(wireRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	recs = nil

	sink := &ndjsonSink{header: http.Header{}}
	sink.body.Grow(2 * want.Len()) // the sink's growth is not the handler's
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	dumpJournal(j, sink)
	runtime.ReadMemStats(&m1)
	if sink.status != http.StatusOK || !bytes.Equal(sink.body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d, %d body bytes: want 200 and the %d bytes of Read's records",
			sink.status, sink.body.Len(), want.Len())
	}
	perRecord := float64(m1.TotalAlloc-m0.TotalAlloc) / records
	t.Logf("dump of %d records at N=256: %.0f B allocated a record", records, perRecord)
	if perRecord >= 1024 && !raceEnabled {
		t.Fatalf("dump allocated %.0f B a record, want under 1 KB", perRecord)
	}
}

// TestJournalDumpBadSpill corrupts the second of three spilled segment
// files: the dump answers 200 with the first segment's records, then
// one final error line naming the failure.
func TestJournalDumpBadSpill(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.New(journal.Config{Cap: 8, SegmentRecords: 4, SpillDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	jw := j.Writer()
	for i := 0; i < 20; i++ {
		d := perm.BitReversal(3)
		jw.Route(d, journal.DigestPerm(d))
	}
	j.Close() // drains the spill queue
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.jrn"))
	if err != nil || len(files) != 3 {
		t.Fatalf("spill files %v (%v), want 3", files, err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	sink := &ndjsonSink{header: http.Header{}}
	dumpJournal(j, sink)
	lines := strings.Split(strings.TrimSuffix(sink.body.String(), "\n"), "\n")
	if sink.status != http.StatusOK || len(lines) != 5 {
		t.Fatalf("status %d, %d lines: want 200, 4 records and an error line:\n%s", sink.status, len(lines), sink.body.String())
	}
	for i, line := range lines[:4] {
		var jr journalRecord
		if err := json.Unmarshal([]byte(line), &jr); err != nil || jr.Seq != uint64(i+1) {
			t.Fatalf("line %d = %q (%v), want record %d", i, line, err, i+1)
		}
	}
	var tail map[string]string
	if err := json.Unmarshal([]byte(lines[4]), &tail); err != nil || len(tail) != 1 || !strings.Contains(tail["error"], filepath.Base(files[1])) {
		t.Fatalf("last line %q (%v), want one error naming %s", lines[4], err, filepath.Base(files[1]))
	}
}
