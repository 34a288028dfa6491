package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/journal/replay"
)

// This file is benesd's window onto the hash-chained traffic journal
// (internal/journal): an NDJSON dump of any retained record window, an
// on-demand chain verification, and a full deterministic replay audit.
// All three 404 when the server runs without -journal.

// journalRecord is the NDJSON wire form of one journal record: kind as
// a string, digests as hex, empty payload fields omitted. A frame line
// carries its packets as srcs/dsts pairs (srcs[k] → dsts[k]).
type journalRecord struct {
	Seq        uint64              `json:"seq"`
	Kind       string              `json:"kind"`
	Plane      int                 `json:"plane"`
	TimeNs     int64               `json:"time_ns"`
	Dest       []int               `json:"dest,omitempty"`
	Srcs       []int               `json:"srcs,omitempty"`
	Dsts       []int               `json:"dsts,omitempty"`
	Faults     []core.Fault        `json:"faults,omitempty"`
	Delivered  string              `json:"delivered,omitempty"`
	Checkpoint *journal.Checkpoint `json:"checkpoint,omitempty"`
	Digest     string              `json:"digest"`
}

// wireRecord is rec's NDJSON line. It shares rec's slices, so it must
// be encoded before rec is reused.
func wireRecord(rec *journal.Record) journalRecord {
	jr := journalRecord{
		Seq:        rec.Seq,
		Kind:       rec.Kind.String(),
		Plane:      rec.Plane,
		TimeNs:     rec.TimeNs,
		Dest:       rec.Dest,
		Srcs:       rec.Srcs,
		Dsts:       rec.Dsts,
		Faults:     rec.Faults,
		Checkpoint: rec.Checkpoint,
		Digest:     fmt.Sprintf("%x", rec.Digest),
	}
	if rec.Delivered != 0 {
		jr.Delivered = fmt.Sprintf("%016x", rec.Delivered)
	}
	return jr
}

// journalWindow parses the optional from/to query parameters against
// the journal's retained bounds. A missing parameter defaults to the
// matching bound; 0 is not a valid sequence number.
func (s *server) journalWindow(r *http.Request) (from, to uint64, err error) {
	oldest, newest, ok := s.jrn.Bounds()
	if !ok {
		return 0, 0, fmt.Errorf("journal is empty")
	}
	from, to = oldest, newest
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil || from == 0 {
			return 0, 0, fmt.Errorf("bad from %q: want a sequence number >= 1", v)
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = strconv.ParseUint(v, 10, 64); err != nil || to == 0 {
			return 0, 0, fmt.Errorf("bad to %q: want a sequence number >= 1", v)
		}
	}
	if from > to {
		return 0, 0, fmt.Errorf("from %d > to %d", from, to)
	}
	return from, to, nil
}

// handleDebugJournal streams the requested record window as NDJSON, one
// record per line in sequence order. The window is clamped to what the
// journal still retains (memory ring plus spill files). Each record is
// encoded inside Journal.Scan's visit, so the dump holds one decoded
// record at a time. The status is 200 before the first record is
// read: a record or spill file that no longer decodes ends the stream
// with one final {"error": ...} line.
func (s *server) handleDebugJournal(w http.ResponseWriter, r *http.Request) {
	if s.jrn == nil {
		s.httpError(w, http.StatusNotFound, "journaling disabled; start benesd with -journal")
		return
	}
	from, to, err := s.journalWindow(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	var werr error // the first failed write; later records are skipped
	err = s.jrn.Scan(from, to, func(rec *journal.Record) {
		if werr == nil {
			werr = enc.Encode(wireRecord(rec))
		}
	})
	if err != nil && werr == nil {
		werr = enc.Encode(map[string]string{"error": err.Error()})
	}
	if werr != nil {
		s.log.Warn("streaming journal records", "err", werr)
	}
}

// handleDebugJournalVerify walks the chain over the requested window
// (default: everything retained) and reports the verdict. An intact
// chain answers 200; a broken one still answers 200 — the verdict is
// the payload, not the status — but an empty journal or a bad range is
// a 400.
func (s *server) handleDebugJournalVerify(w http.ResponseWriter, r *http.Request) {
	if s.jrn == nil {
		s.httpError(w, http.StatusNotFound, "journaling disabled; start benesd with -journal")
		return
	}
	from, to, err := s.journalWindow(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, s.jrn.Verify(from, to))
}

type replayRequest struct {
	// From and To bound the replayed window; 0 means the matching
	// retained bound.
	From uint64 `json:"from,omitempty"`
	To   uint64 `json:"to,omitempty"`
}

// handleDebugReplay re-executes the requested journal window against a
// fresh network and reports every divergence (see internal/journal/
// replay). The report is the payload either way; only an unusable
// request (empty journal, inverted range) is a 400.
func (s *server) handleDebugReplay(w http.ResponseWriter, r *http.Request) {
	if s.jrn == nil {
		s.httpError(w, http.StatusNotFound, "journaling disabled; start benesd with -journal")
		return
	}
	var req replayRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	oldest, newest, ok := s.jrn.Bounds()
	if !ok {
		s.httpError(w, http.StatusBadRequest, "journal is empty")
		return
	}
	from, to := req.From, req.To
	if from == 0 {
		from = oldest
	}
	if to == 0 {
		to = newest
	}
	if from > to {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("from %d > to %d", from, to))
		return
	}
	logN := 0
	for n := s.fab.N(); n > 1; n >>= 1 {
		logN++
	}
	rep, err := replay.Window(replay.Config{LogN: logN, Planes: s.fab.Planes()}, s.jrn, from, to)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// journalDegradations maps journal health onto /readyz degraded
// reasons. Losing journal records never sheds traffic — the data path
// is intact — but dropped records or a standing spill backlog mean the
// audit trail has holes, which an operator should see before trusting a
// replay window.
func journalDegradations(dropped, backlog int64) []string {
	var out []string
	if dropped > 0 {
		out = append(out, fmt.Sprintf("journal dropped %d records", dropped))
	}
	if backlog > 0 {
		out = append(out, fmt.Sprintf("journal spill backlog %d segments", backlog))
	}
	return out
}
