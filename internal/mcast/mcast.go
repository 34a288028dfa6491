// Package mcast compiles multicast (one-to-many) mappings into
// copy-network plans for the Benes fabric.
//
// The paper's network realizes permutations — every input reaches
// exactly one output. Its introduction already points at the
// generalized connection network built from it (Thompson's
// construction, experiment E28): distribute the requested inputs, copy
// each into a fan-out-sized block, then permute the copies to their
// outputs. This package is that sandwich in plan-compilable form,
// matched to the serving stack's shapes:
//
//	distribute  B(n), binary states: requested input with rank r
//	            (r-th smallest requested source) lands on line r, so
//	            the copy stage sees a *concentrated* input vector;
//	copy        an n-stage omega ladder of four-state switches
//	            (core.McastState). Line r carries the contiguous
//	            address interval [start_r, start_r + fanout_r); each
//	            stage examines one address bit, most significant
//	            first, and a switch whose interval spans both halves
//	            broadcasts, splitting the interval (boolean interval
//	            splitting — Turner's copy network, and the monotone
//	            routing of Burckel, Gioan & Thomé's rearrangeable
//	            multicast construction). Concentrated monotone
//	            intervals never conflict, so the ladder is
//	            nonblocking by construction;
//	permute     B(n), binary states: copy c of source s moves from
//	            line start_s + c to the c-th output requesting s.
//
// The three phases cost 2(N log N - N/2) + (N/2) log N switches and
// 2(2 log N - 1) + log N gate delays. Both B(n) phases reuse the
// looping-algorithm setup. The compiler writes a plan as those switch
// bits, packed (Plan.Words): the form the serving layer caches, the
// flight recorder diffs, and Walk verifies delivery on.
package mcast

import (
	"errors"
	"fmt"
	"sort"
)

// Mapping is a multicast request in output-major form: Mapping[out] is
// the input (source) whose value output out wants, or -1 when the
// output is unassigned. A source may appear any number of times — its
// fan-out — and a permutation is the special case where every source
// appears exactly once.
type Mapping []int

// Errors returned by mapping validation and compilation.
var (
	ErrLength    = errors.New("mcast: mapping length is not the network size")
	ErrRange     = errors.New("mcast: destination or source out of range")
	ErrDuplicate = errors.New("mcast: duplicate destination")
	ErrEmpty     = errors.New("mcast: empty destination set")
)

// Validate checks that the mapping has length n and every entry is a
// source in [0, n) or -1.
func (m Mapping) Validate(n int) error {
	if len(m) != n {
		return fmt.Errorf("%w: got %d, want %d", ErrLength, len(m), n)
	}
	for out, src := range m {
		if src < -1 || src >= n {
			return fmt.Errorf("%w: output %d wants source %d of %d", ErrRange, out, src, n)
		}
	}
	return nil
}

// Equal reports entry-wise equality.
func (m Mapping) Equal(o Mapping) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Assigned returns the number of outputs with a source assigned (the
// total copy count).
func (m Mapping) Assigned() int {
	c := 0
	for _, src := range m {
		if src >= 0 {
			c++
		}
	}
	return c
}

// Entry is one source's destination set in input-major form.
type Entry struct {
	Src  int   `json:"src"`
	Dsts []int `json:"dsts"`
}

// FromEntries builds a validated Mapping for an N-port network from
// input-major entries. It rejects out-of-range sources and
// destinations, empty destination sets, duplicate sources, and
// destinations claimed twice (within one entry or across entries) —
// the fabric's output ports are single-valued.
func FromEntries(n int, entries []Entry) (Mapping, error) {
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	seenSrc := make(map[int]bool, len(entries))
	for _, e := range entries {
		if e.Src < 0 || e.Src >= n {
			return nil, fmt.Errorf("%w: source %d of %d", ErrRange, e.Src, n)
		}
		if seenSrc[e.Src] {
			return nil, fmt.Errorf("%w: source %d listed twice", ErrDuplicate, e.Src)
		}
		seenSrc[e.Src] = true
		if len(e.Dsts) == 0 {
			return nil, fmt.Errorf("%w: source %d", ErrEmpty, e.Src)
		}
		for _, d := range e.Dsts {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("%w: destination %d of %d", ErrRange, d, n)
			}
			if m[d] != -1 {
				return nil, fmt.Errorf("%w: destination %d", ErrDuplicate, d)
			}
			m[d] = e.Src
		}
	}
	return m, nil
}

// Entries renders the mapping in input-major form, sources ascending,
// destination lists ascending.
func (m Mapping) Entries() []Entry {
	bySrc := map[int][]int{}
	for out, src := range m {
		if src >= 0 {
			bySrc[src] = append(bySrc[src], out)
		}
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	es := make([]Entry, len(srcs))
	for i, s := range srcs {
		es[i] = Entry{Src: s, Dsts: bySrc[s]}
	}
	return es
}
