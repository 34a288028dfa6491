package fabric

import (
	"fmt"

	"repro/internal/perm"
)

// Idle marks an unmatched input in a partial matching passed to
// Complete.
const Idle = -1

// Complete extends a partial input→output matching to a full
// permutation: every input i with partial[i] == Idle is assigned one of
// the outputs no matched input claimed, in ascending order. The Benes
// engine routes whole permutations only — the paper's model moves one
// full vector per pass — so a frame carrying fewer than N packets must
// still present N destination tags; the filler assignments carry no
// payload and exist purely to make the frame self-routable. It is the
// scheduler's own completion (completeInto), so a journaled frame's
// pairs complete to exactly the permutation its plane served.
//
// Complete returns an error when partial is not a matching: an entry
// out of range, or two inputs claiming the same output.
func Complete(partial []int) (perm.Perm, error) {
	n := len(partial)
	taken := make([]bool, n)
	for i, out := range partial {
		if out == Idle {
			continue
		}
		if out < 0 || out >= n {
			return nil, fmt.Errorf("fabric: partial[%d] = %d out of range [0,%d)", i, out, n)
		}
		if taken[out] {
			return nil, fmt.Errorf("fabric: output %d claimed twice", out)
		}
		taken[out] = true
	}
	full := make(perm.Perm, n)
	completeInto(partial, full, taken)
	return full, nil
}

// CompleteMapping extends a partial output→source mapping (output-
// major, Idle for unassigned outputs) by assigning each source that
// appears nowhere in the mapping to one of the idle outputs, in
// ascending order. Fan-out guarantees enough unused sources: every
// extra copy a source claims frees up exactly one other source, so
// the result is always a total mapping. Collectives and the HTTP layer
// use this to turn a sparse fan-out request into a full frame whose
// idle ports carry unicast filler; the copy-network compiler accepts
// partial mappings too, so completion is optional.
func CompleteMapping(partial []int) ([]int, error) {
	n := len(partial)
	full := make([]int, n)
	used := make([]bool, n)
	idle := 0
	for out, src := range partial {
		if src == Idle {
			idle++
			full[out] = Idle
			continue
		}
		if src < 0 || src >= n {
			return nil, fmt.Errorf("fabric: partial[%d] = %d out of range [0,%d)", out, src, n)
		}
		used[src] = true
		full[out] = src
	}
	if idle == n {
		return nil, fmt.Errorf("fabric: mapping assigns no outputs")
	}
	free := 0
	for out, src := range full {
		if src != Idle {
			continue
		}
		for free < n && used[free] {
			free++
		}
		if free == n {
			break // more idle outputs than unused sources cannot happen
		}
		used[free] = true
		full[out] = free
	}
	return full, nil
}

// completeInto is Complete for the scheduler hot path: it writes into
// caller-owned memory and performs no validation, because partial comes
// from buildFrame's matching loop, which is conflict-free by
// construction. taken must already mark exactly the outputs claimed in
// partial; it is consumed (filler outputs get marked too).
func completeInto(partial []int, full perm.Perm, taken []bool) {
	free := 0
	for i, out := range partial {
		if out != Idle {
			full[i] = out
			continue
		}
		for taken[free] {
			free++
		}
		taken[free] = true
		full[i] = free
	}
}
