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
	full := make(perm.Perm, len(partial))
	if err := CompleteInto(partial, full, make([]bool, len(partial))); err != nil {
		return nil, err
	}
	return full, nil
}

// CompleteInto is Complete into caller-owned memory, for callers that
// complete many untrusted matchings, such as journal replay: full
// receives the permutation and taken is scratch, each len(partial)
// long. It validates partial as Complete does and allocates nothing.
func CompleteInto(partial []int, full perm.Perm, taken []bool) error {
	n := len(partial)
	clear(taken)
	for i, out := range partial {
		if out == Idle {
			continue
		}
		if out < 0 || out >= n {
			return fmt.Errorf("fabric: partial[%d] = %d out of range [0,%d)", i, out, n)
		}
		if taken[out] {
			return fmt.Errorf("fabric: output %d claimed twice", out)
		}
		taken[out] = true
	}
	completeInto(partial, full, taken)
	return nil
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
