package main

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// This file holds every correctness check the benchmark applies: one per
// reply kind, plus the end-of-run fabric books and journal chain.

// check reports why body, answered with status, is not the correct
// reply to o.
func (o *op) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", o.kind.path(), status, body)
	}
	switch o.kind {
	case kindRoute:
		var r struct {
			Data     json.RawMessage `json:"data"`
			Kind     string          `json:"kind"`
			CacheHit bool            `json:"cache_hit"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/route: %w", err)
		}
		if err := matchInts(r.Data, o.inv); err != nil {
			return fmt.Errorf("/route: data: %w", err)
		}
		if (r.Kind == "self-routed") != o.selfRoutes {
			return fmt.Errorf("/route: kind %q, self-routable %v", r.Kind, o.selfRoutes)
		}
		if r.CacheHit != o.hit {
			return fmt.Errorf("/route: cache_hit %v, want %v", r.CacheHit, o.hit)
		}
	case kindSend:
		var r struct{ Accepted, Rejected int }
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/send: %w", err)
		}
		if r.Accepted != len(o.pkts)/2 || r.Rejected != 0 {
			return fmt.Errorf("/send: %d accepted, %d rejected of %d", r.Accepted, r.Rejected, len(o.pkts)/2)
		}
	case kindMulticast:
		var r struct {
			Class     string `json:"class"`
			Sources   int    `json:"sources"`
			Assigned  int    `json:"assigned"`
			MaxFanout int    `json:"max_fanout"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/multicast: %w", err)
		}
		c := o.mcls
		if r.Class != c.Class.String() || r.Sources != c.Sources || r.Assigned != c.Assigned || r.MaxFanout != c.MaxFanout {
			return fmt.Errorf("/multicast: class %s sources %d assigned %d max_fanout %d, want %s %d %d %d",
				r.Class, r.Sources, r.Assigned, r.MaxFanout, c.Class, c.Sources, c.Assigned, c.MaxFanout)
		}
	default:
		var r struct {
			Done   bool            `json:"done"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/collective %s: %w", o.kind, err)
		}
		if !r.Done {
			return fmt.Errorf("/collective %s: not done", o.kind)
		}
		if err := matchRows(r.Result, o.want); err != nil {
			return fmt.Errorf("/collective %s: result: %w", o.kind, err)
		}
	}
	return nil
}

// equalRows and equalInts check the in-process pass, whose ops return
// values instead of JSON.
func equalRows(got, want [][]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if err := equalInts(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

func equalInts(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("value %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// fabricBooks is the part of /fabric/stats the end-of-run check reads.
type fabricBooks struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
}

// settled reports whether every accepted packet has left the fabric.
func (b fabricBooks) settled() bool { return b.Delivered+b.Lost >= b.Accepted }

// checkBooks is the exactly-once check after the fabric has drained:
// every accepted packet delivered, none lost, none refused.
func checkBooks(b fabricBooks) error {
	if b.Lost != 0 || b.Rejected != 0 || b.Delivered != b.Accepted {
		return fmt.Errorf("/fabric/stats: accepted %d delivered %d lost %d rejected %d",
			b.Accepted, b.Delivered, b.Lost, b.Rejected)
	}
	return nil
}

// journalVerdict is the /debug/journal/verify reply.
type journalVerdict struct {
	OK      bool   `json:"ok"`
	Records int    `json:"records"`
	Detail  string `json:"detail"`
}

func checkJournal(v journalVerdict) error {
	if !v.OK || v.Records == 0 {
		return fmt.Errorf("/debug/journal/verify: ok %v over %d records: %s", v.OK, v.Records, v.Detail)
	}
	return nil
}

// matchInts compares a JSON array of integers with want without
// decoding it into a slice: the client runs on the server's cores, so
// checking a reply must cost little next to serving it.
func matchInts(raw []byte, want []int) error {
	s := scanner{b: raw}
	if err := s.matchArray(want); err != nil {
		return err
	}
	return s.end()
}

// matchRows compares a JSON array of integer arrays with want.
func matchRows(raw []byte, want [][]int) error {
	s := scanner{b: raw}
	if err := s.open(); err != nil {
		return err
	}
	for r := 0; ; r++ {
		if s.closeIf() {
			if r != len(want) {
				return fmt.Errorf("%d rows, want %d", r, len(want))
			}
			return s.end()
		}
		if r > 0 {
			if err := s.comma(); err != nil {
				return err
			}
		}
		if r >= len(want) {
			return fmt.Errorf("more than %d rows", len(want))
		}
		if err := s.matchArray(want[r]); err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
	}
}

// scanner walks JSON integer arrays.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

func (s *scanner) open() error {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '[' {
		return fmt.Errorf("want '[' at offset %d", s.i)
	}
	s.i++
	return nil
}

func (s *scanner) closeIf() bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		return true
	}
	return false
}

func (s *scanner) comma() error {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != ',' {
		return fmt.Errorf("want ',' at offset %d", s.i)
	}
	s.i++
	return nil
}

func (s *scanner) end() error {
	s.ws()
	if s.i != len(s.b) {
		return fmt.Errorf("trailing bytes at offset %d", s.i)
	}
	return nil
}

func (s *scanner) int() (int, error) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, v := s.i, 0
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' && s.i-start < 18 {
		v = v*10 + int(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start {
		return 0, fmt.Errorf("want an integer at offset %d", s.i)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (s *scanner) matchArray(want []int) error {
	if err := s.open(); err != nil {
		return err
	}
	for k := 0; ; k++ {
		if s.closeIf() {
			if k != len(want) {
				return fmt.Errorf("%d values, want %d", k, len(want))
			}
			return nil
		}
		if k > 0 {
			if err := s.comma(); err != nil {
				return err
			}
		}
		v, err := s.int()
		if err != nil {
			return err
		}
		if k >= len(want) {
			return fmt.Errorf("more than %d values", len(want))
		}
		if v != want[k] {
			return fmt.Errorf("value %d is %d, want %d", k, v, want[k])
		}
	}
}
