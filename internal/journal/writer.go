package journal

import "repro/internal/core"

// Writer is the nil-safe append facade the engine, fabric, and chaos
// harness emit through, mirroring netsim.Recorder's convention: every
// method on a nil Writer (or a Writer over a nil journal) is inert, so
// an unconfigured journal costs one pointer test per call site and
// allocates nothing. Callers guard digest computation behind Enabled so
// the disabled hot path does no work at all.
//
// Slice arguments are only read for the duration of the call — the
// record is encoded synchronously into the journal's segment buffer —
// so callers may pass pooled or reused slices.
type Writer struct{ j *Journal }

// Enabled reports whether events emitted through w reach a journal.
func (w *Writer) Enabled() bool { return w != nil && w.j != nil }

// Route records one engine-level route admission: the served
// permutation and its delivery digest (DigestPerm of the realized
// permutation).
func (w *Writer) Route(dest []int, delivered uint64) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindRoute, Plane: -1, Dest: dest, Delivered: delivered})
}

// Frame records one verified unicast frame: the serving plane, its
// real packets as pairs in claim order (packet k travelled srcs[k] →
// dsts[k]), and DigestPairs over the verified deliveries. The filler
// that completed the pairs to the permutation the plane served is not
// recorded; replay rebuilds it with fabric.Complete.
func (w *Writer) Frame(plane int, srcs, dsts []int, delivered uint64) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindFrame, Plane: plane, Srcs: srcs, Dsts: dsts, Delivered: delivered})
}

// McastFrame records one verified multicast mapping frame: the serving
// plane, its copies as pairs in claim order (copy k travelled srcs[k]
// → dsts[k]; the mapping the plane served is those pairs with every
// other output idle), and DigestPairs over the verified copies.
func (w *Writer) McastFrame(plane int, srcs, dsts []int, delivered uint64) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindMcastFrame, Plane: plane, Srcs: srcs, Dsts: dsts, Delivered: delivered})
}

// Round records one whole-permutation collective round.
func (w *Writer) Round(plane int, dest []int, delivered uint64) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindRound, Plane: plane, Dest: dest, Delivered: delivered})
}

// McastRound records one whole-mapping multicast collective round, with
// DigestMapping over the verified assigned outputs.
func (w *Writer) McastRound(plane int, mapping []int, delivered uint64) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindMcastRound, Plane: plane, Dest: mapping, Delivered: delivered})
}

// Inject records a fault injection on one plane. An empty set is a
// heal.
func (w *Writer) Inject(plane int, faults []core.Fault) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindInject, Plane: plane, Faults: faults})
}

// Fail records an administrative plane failure.
func (w *Writer) Fail(plane int) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindFail, Plane: plane})
}

// Restore records a plane returning to rotation.
func (w *Writer) Restore(plane int) {
	if w == nil || w.j == nil {
		return
	}
	w.j.append(&Record{Kind: KindRestore, Plane: plane})
}

// Checkpoint appends one checkpoint record from the journal's installed
// source, if any.
func (w *Writer) Checkpoint() {
	if w == nil || w.j == nil {
		return
	}
	w.j.Checkpoint()
}
