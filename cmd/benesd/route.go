package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/perm"
)

// A /route request is served from one pooled routeBuf: its body, its
// decoded dest vector, the routed payload and the reply are reused from
// request to request, so a warm /route leaves no garbage proportional
// to N. A body that is exactly {"dest":[…]} is parsed in one pass
// (parseRoute) and routes the shared identity payload; any other body,
// one carrying "data" included, goes to encoding/json over the same
// bytes, so the inputs accepted, the values decoded and the statuses
// answered are encoding/json's. Nothing keeps a pooled slice past its
// request: the engine copies what a plan or a journal record needs.

// routeBodyLimit bounds a /route body at N terminals: room for the dest
// and data arrays with every element at its widest (the 20 bytes of
// -9223372036854775808 and a comma) and 11 bytes of whitespace around
// each, plus 4 KB for the keys and any other whitespace. Longer bodies
// are answered 413 without being decoded.
func routeBodyLimit(n int) int { return 4096 + 2*32*n }

type routeBuf struct {
	body  bytes.Buffer
	dest  []int
	out   []int
	reply []byte
}

var routeBufs = sync.Pool{New: func() any { return new(routeBuf) }}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	b := routeBufs.Get().(*routeBuf)
	defer routeBufs.Put(b)
	if err := readBody(w, r, &b.body, s.routeLimit); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", s.routeLimit))
			return
		}
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	body := b.body.Bytes()
	dest, ok := parseRoute(body, b.dest[:0])
	b.dest = dest
	var data []int
	if !ok {
		var req routeRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
			return
		}
		dest, data = req.Dest, req.Data
	}
	if data == nil {
		// The identity payload 0..len(dest)-1, so the reply shows where
		// each input went; a wrong-length dest gets its own, so the
		// engine's error names the same sizes it always has.
		data = s.identity
		if len(dest) != len(data) {
			data = perm.Identity(len(dest))
		}
	}
	n := len(s.identity)
	if cap(b.out) < n {
		b.out = make([]int, n)
	}
	resp := s.eng.RouteInto(perm.Perm(dest), data, b.out[:n])
	if resp.Err != nil {
		s.httpError(w, http.StatusBadRequest, resp.Err.Error())
		return
	}
	b.reply = appendRouteReply(b.reply[:0], resp.Data, resp.Kind.String(), resp.CacheHit)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b.reply)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b.reply); err != nil {
		s.log.Warn("writing response", "err", err)
	}
}

// readBody resets buf and reads r's body into it. A body longer than
// limit bytes fails with *http.MaxBytesError after at most limit+1 bytes
// are read, and net/http closes the connection after the reply instead
// of draining the rest.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, limit int) error {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, int64(limit)))
	return err
}

// parseRoute parses body when it is exactly {"dest":[…]}, with JSON
// whitespace around any token and every element an integer parseInt
// reads, appending the array to dest. ok is false for any other body,
// which encoding/json decodes instead.
func parseRoute(body []byte, dest []int) (_ []int, ok bool) {
	i, ok := token(body, 0, `{`)
	if ok {
		i, ok = token(body, i, `"dest"`)
	}
	if ok {
		i, ok = token(body, i, `:`)
	}
	if ok {
		dest, i, ok = parseIntsAt(dest, body, i)
	}
	if ok {
		i, ok = token(body, i, `}`)
	}
	return dest, ok && skipSpace(body, i) == len(body)
}

// token skips whitespace from data[i] and reports whether tok follows,
// returning the index just past it.
func token(data []byte, i int, tok string) (int, bool) {
	i = skipSpace(data, i)
	if len(data)-i < len(tok) || string(data[i:i+len(tok)]) != tok {
		return i, false
	}
	return i + len(tok), true
}

// appendRouteReply appends the bytes json.Encoder writes for
// routeResponse{Data: data, Kind: kind, CacheHit: hit}, its newline
// included. data is a routed payload, never nil, and kind a PlanKind
// name, which holds nothing JSON escapes.
func appendRouteReply(b []byte, data []int, kind string, hit bool) []byte {
	b = append(b, `{"data":[`...)
	for i, v := range data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, `],"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","cache_hit":`...)
	b = strconv.AppendBool(b, hit)
	return append(b, "}\n"...)
}
