// Package journal is the fabric's tamper-evident flight log: a bounded,
// low-overhead event journal that records every admission-side event —
// engine /route requests, fabric frames (unicast and multicast),
// collective rounds, fault injections, plane fail/restore — as
// canonical binary records carrying a monotone sequence number and a
// chained hash: each record's digest is SHA-256 over its predecessor's
// digest and its own body, so flipping one byte anywhere breaks the
// chain at exactly that record.
//
// The design leans on the paper's central property: tag-based
// self-routing makes every switch setting a pure function of the
// admitted traffic. A journal of admissions is therefore a *complete*
// debugging artifact — package journal/replay re-executes any window
// against a fresh network and diffs the outcomes against the recorded
// deliveries, reporting the first divergent sequence number.
//
// Records live in a memory ring of fixed-size segments with optional
// asynchronous on-disk spill; periodic checkpoint records carry engine
// and fabric snapshot counters plus per-plane recorder digests, giving
// replay verifiable per-kind record counts at known chain positions.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/packed"
)

// Kind names one record type.
type Kind uint8

// Record kinds. The zero Kind is invalid so a zeroed buffer never
// decodes as a record.
const (
	// KindRoute is one engine-level route admission: a full permutation
	// served through the standalone engine (benesd /route).
	KindRoute Kind = 1
	// KindFrame is one unicast fabric frame served and verified: the
	// (src, dst) pairs of its real packets. The filler that completes
	// them to the permutation the plane served is not stored: it is
	// the fabric's completion of those pairs (fabric.Complete).
	KindFrame Kind = 2
	// KindMcastFrame is one multicast mapping frame served through the
	// copy network: the (src, dst) pairs of its copies. The mapping the
	// plane served is those pairs with every other output idle.
	KindMcastFrame Kind = 3
	// KindRound is one whole-permutation collective round.
	KindRound Kind = 4
	// KindMcastRound is one whole-mapping multicast collective round.
	KindMcastRound Kind = 5
	// KindInject is a fault injection on one plane; an empty fault set
	// heals the plane.
	KindInject Kind = 6
	// KindFail is an administrative plane failure.
	KindFail Kind = 7
	// KindRestore returns a plane to rotation.
	KindRestore Kind = 8
	// KindCheckpoint carries snapshot counters and per-plane recorder
	// digests; see Checkpoint.
	KindCheckpoint Kind = 9

	// KindMax bounds the kind space; per-kind count vectors are indexed
	// by Kind and sized KindMax.
	KindMax = 10
)

// String names the kind for NDJSON output and divergence reports.
func (k Kind) String() string {
	switch k {
	case KindRoute:
		return "route"
	case KindFrame:
		return "frame"
	case KindMcastFrame:
		return "mcast_frame"
	case KindRound:
		return "round"
	case KindMcastRound:
		return "mcast_round"
	case KindInject:
		return "inject"
	case KindFail:
		return "fail"
	case KindRestore:
		return "restore"
	case KindCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PlaneCheckpoint is one plane's slice of a checkpoint record.
type PlaneCheckpoint struct {
	Frames    uint64 `json:"frames"`
	Packets   uint64 `json:"packets"`
	Rounds    uint64 `json:"rounds"`
	Failovers uint64 `json:"failovers"`
	// RecorderDigest is an FNV-1a digest of the plane's gate-level
	// flight-recorder stage totals (0 when accounting is off). It is
	// chain-protected but informational: live counters race traffic, so
	// replay does not re-derive it.
	RecorderDigest uint64 `json:"recorder_digest"`
}

// Checkpoint is the payload of a KindCheckpoint record. KindCounts is
// filled by the journal itself at append time — the number of records
// of each kind with a sequence number strictly below the checkpoint's —
// so replay can verify exact per-kind deltas between checkpoints. The
// engine/fabric counters and plane states come from the checkpoint
// source (SetCheckpointSource) and ride along chain-protected.
type Checkpoint struct {
	KindCounts     []uint64          `json:"kind_counts"`
	EngineRequests uint64            `json:"engine_requests"`
	EngineHits     uint64            `json:"engine_hits"`
	EngineMisses   uint64            `json:"engine_misses"`
	Accepted       uint64            `json:"accepted"`
	Delivered      uint64            `json:"delivered"`
	Lost           uint64            `json:"lost"`
	Frames         uint64            `json:"frames"`
	Planes         []PlaneCheckpoint `json:"planes,omitempty"`
}

// Record is one decoded journal entry. Which slice fields are set
// depends on Kind:
//
//	KindRoute, KindRound:  Dest is the full permutation
//	KindFrame,
//	KindMcastFrame:        Srcs and Dsts are the real packets in claim
//	                       order, packet k travelling Srcs[k] → Dsts[k]
//	                       (a multicast source repeats once per copy)
//	KindMcastRound:        Dest is the output-major mapping (-1 = idle)
//	KindInject:            Faults is the injected set (empty = heal)
//	KindCheckpoint:        Checkpoint is set
//
// Delivered is an FNV-1a digest of the verified deliveries (see
// DigestPerm, DigestPairs, DigestMapping) that replay recomputes from a
// fresh network. Digest is the record's chain digest: SHA-256 over the
// predecessor's digest followed by this record's encoded body.
type Record struct {
	Seq        uint64
	Kind       Kind
	Plane      int // -1 when the event is not plane-scoped
	TimeNs     int64
	Dest       []int
	Srcs       []int
	Dsts       []int
	Faults     []core.Fault
	Delivered  uint64
	Checkpoint *Checkpoint
	Digest     [DigestSize]byte
}

// Encoding constants. A record on the wire is a fixed header, a
// kind-specific payload, and the 32-byte chain digest.
const (
	recordMagic   = 0x424a // "JB" little-endian
	recordVersion = 3
	headerSize    = 28
	// DigestSize is the chain digest length (SHA-256).
	DigestSize = 32
	// maxPayload bounds one record's payload; decode rejects anything
	// larger before allocating.
	maxPayload = 1 << 24
)

// Decode errors.
var (
	ErrShort     = errors.New("journal: truncated record")
	ErrBadMagic  = errors.New("journal: bad record magic")
	ErrBadRecord = errors.New("journal: malformed record")
)

// appendBody appends the record's header and payload (everything the
// chain digest covers — not the digest itself) to dst and returns the
// extended slice. The layout is canonical: encoding a decoded record
// reproduces the original bytes bit for bit.
func appendBody(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst,
		byte(recordMagic&0xff), byte(recordMagic>>8),
		recordVersion, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.TimeNs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Plane)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // payload length backpatched
	payloadAt := len(dst)
	switch r.Kind {
	case KindRoute, KindRound, KindMcastRound:
		dst = appendInts(dst, r.Dest)
		dst = binary.LittleEndian.AppendUint64(dst, r.Delivered)
	case KindFrame, KindMcastFrame:
		dst = appendInts(dst, r.Srcs)
		dst = appendInts(dst, r.Dsts)
		dst = binary.LittleEndian.AppendUint64(dst, r.Delivered)
	case KindInject:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Faults)))
		for _, f := range r.Faults {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Stage)))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Switch)))
			if f.StuckCrossed {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case KindFail, KindRestore:
		// Header only.
	case KindCheckpoint:
		cp := r.Checkpoint
		dst = appendUints(dst, cp.KindCounts)
		dst = binary.LittleEndian.AppendUint64(dst, cp.EngineRequests)
		dst = binary.LittleEndian.AppendUint64(dst, cp.EngineHits)
		dst = binary.LittleEndian.AppendUint64(dst, cp.EngineMisses)
		dst = binary.LittleEndian.AppendUint64(dst, cp.Accepted)
		dst = binary.LittleEndian.AppendUint64(dst, cp.Delivered)
		dst = binary.LittleEndian.AppendUint64(dst, cp.Lost)
		dst = binary.LittleEndian.AppendUint64(dst, cp.Frames)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cp.Planes)))
		for _, pc := range cp.Planes {
			dst = binary.LittleEndian.AppendUint64(dst, pc.Frames)
			dst = binary.LittleEndian.AppendUint64(dst, pc.Packets)
			dst = binary.LittleEndian.AppendUint64(dst, pc.Rounds)
			dst = binary.LittleEndian.AppendUint64(dst, pc.Failovers)
			dst = binary.LittleEndian.AppendUint64(dst, pc.RecorderDigest)
		}
	}
	binary.LittleEndian.PutUint32(dst[start+24:], uint32(len(dst)-payloadAt))
	return dst
}

// appendInts packs an int vector at its value width: u32 count, then,
// when count > 0, i32 base (the vector's minimum), u8 width (the fewest
// of 1, 2 or 4 bytes that hold max − base) and count little-endian
// entries of v − base, laid out by package packed, which the engine's
// plan cache shares. A permutation of up to 256 ports thus costs one
// byte per entry, and a mapping with idle (−1) outputs two. The values
// alone fix base and width, so the layout stays canonical; decoder.ints
// rejects every other choice. Each value is taken as an int32.
func appendInts(dst []byte, vals []int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	lo, hi := int32(vals[0]), int32(vals[0])
	for _, v := range vals[1:] {
		lo = min(lo, int32(v))
		hi = max(hi, int32(v))
	}
	w := packed.Width(uint32(hi) - uint32(lo))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(lo))
	dst = append(dst, byte(w))
	at := len(dst)
	dst = slices.Grow(dst, w*len(vals))[:at+w*len(vals)]
	for i, v := range vals {
		packed.Put(dst[at:], w, i, uint32(int32(v))-uint32(lo))
	}
	return dst
}

func appendUints(dst []byte, vals []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// Encode renders one record including its chain digest — the exact
// bytes the journal stores and spills.
func Encode(r *Record) []byte {
	b := appendBody(nil, r)
	return append(b, r.Digest[:]...)
}

// decoder is a bounds-checked little-endian reader over one payload.
type decoder struct {
	b   []byte
	off int
	err bool
}

func (d *decoder) u32() uint32 {
	if d.err || d.off+4 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err || d.off+8 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) u8() byte {
	if d.err || d.off >= len(d.b) {
		d.err = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// ints reads one packed int vector (see appendInts) into dst's
// storage, growing it only when the vector does not fit. The count,
// width, base and entries are all checked against the remaining
// payload and the canonical rules before dst grows, so a hostile count
// can never balloon memory and every accepted vector re-encodes to the
// same bytes.
func (d *decoder) ints(dst []int) []int {
	dst = dst[:0]
	n := int(d.u32())
	if d.err || n < 0 {
		d.err = true
		return dst
	}
	if n == 0 {
		return dst
	}
	base := int64(int32(d.u32()))
	w := int(d.u8())
	if d.err || (w != 1 && w != 2 && w != 4) || n > (len(d.b)-d.off)/w {
		d.err = true
		return dst
	}
	raw := d.b[d.off : d.off+n*w]
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for i := 0; i < n; i++ {
		x := packed.At(raw, w, i)
		lo = min(lo, x)
		hi = max(hi, x)
	}
	if lo != 0 || packed.Width(hi) != w || base+int64(hi) > math.MaxInt32 {
		d.err = true
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, int(base+int64(packed.At(raw, w, i))))
	}
	d.off += n * w
	return dst
}

func (d *decoder) uints() []uint64 {
	n := int(d.u32())
	if d.err || n < 0 || d.off+8*n > len(d.b) {
		d.err = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
	}
	return out
}

// Decode parses one record from the front of b and returns it along
// with the number of bytes consumed. It never panics on arbitrary
// input: every length is validated before use and a malformed buffer
// returns an error. The chain digest is read but not verified — that is
// Journal.Verify's job, which needs the predecessor's digest.
func Decode(b []byte) (*Record, int, error) {
	r := new(Record)
	n, err := decodeInto(b, r)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// decodeInto is Decode into r: every field is overwritten, and r's
// vectors and fault set are reused when the decoded ones fit, so a walk
// that decodes record after record into one Record allocates only for
// checkpoints and for vectors longer than any before them. On error r
// is left partly written.
func decodeInto(b []byte, r *Record) (int, error) {
	if len(b) < headerSize {
		return 0, ErrShort
	}
	if binary.LittleEndian.Uint16(b) != recordMagic {
		return 0, ErrBadMagic
	}
	if b[2] != recordVersion {
		return 0, fmt.Errorf("%w: version %d", ErrBadRecord, b[2])
	}
	kind := Kind(b[3])
	if kind == 0 || kind >= KindMax {
		return 0, fmt.Errorf("%w: kind %d", ErrBadRecord, b[3])
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[24:]))
	if payloadLen < 0 || payloadLen > maxPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrBadRecord, payloadLen)
	}
	total := headerSize + payloadLen + DigestSize
	if len(b) < total {
		return 0, ErrShort
	}
	*r = Record{
		Seq:    binary.LittleEndian.Uint64(b[4:]),
		Kind:   kind,
		TimeNs: int64(binary.LittleEndian.Uint64(b[12:])),
		Plane:  int(int32(binary.LittleEndian.Uint32(b[20:]))),
		Dest:   r.Dest[:0],
		Srcs:   r.Srcs[:0],
		Dsts:   r.Dsts[:0],
		Faults: r.Faults[:0],
	}
	d := &decoder{b: b[headerSize : headerSize+payloadLen]}
	switch kind {
	case KindRoute, KindRound, KindMcastRound:
		r.Dest = d.ints(r.Dest)
		r.Delivered = d.u64()
	case KindFrame, KindMcastFrame:
		r.Srcs = d.ints(r.Srcs)
		r.Dsts = d.ints(r.Dsts)
		r.Delivered = d.u64()
	case KindInject:
		n := int(d.u32())
		if d.err || n < 0 || d.off+9*n > len(d.b) {
			return 0, fmt.Errorf("%w: fault count %d", ErrBadRecord, n)
		}
		r.Faults = slices.Grow(r.Faults, n)[:n]
		for i := range r.Faults {
			r.Faults[i].Stage = int(int32(d.u32()))
			r.Faults[i].Switch = int(int32(d.u32()))
			stuck := d.u8()
			if stuck > 1 {
				return 0, fmt.Errorf("%w: stuck byte %d", ErrBadRecord, stuck)
			}
			r.Faults[i].StuckCrossed = stuck == 1
		}
	case KindFail, KindRestore:
	case KindCheckpoint:
		cp := &Checkpoint{}
		cp.KindCounts = d.uints()
		cp.EngineRequests = d.u64()
		cp.EngineHits = d.u64()
		cp.EngineMisses = d.u64()
		cp.Accepted = d.u64()
		cp.Delivered = d.u64()
		cp.Lost = d.u64()
		cp.Frames = d.u64()
		n := int(d.u32())
		if d.err || n < 0 || d.off+40*n > len(d.b) {
			return 0, fmt.Errorf("%w: plane count %d", ErrBadRecord, n)
		}
		cp.Planes = make([]PlaneCheckpoint, n)
		for i := range cp.Planes {
			cp.Planes[i] = PlaneCheckpoint{
				Frames:         d.u64(),
				Packets:        d.u64(),
				Rounds:         d.u64(),
				Failovers:      d.u64(),
				RecorderDigest: d.u64(),
			}
		}
		r.Checkpoint = cp
	}
	if d.err {
		return 0, ErrBadRecord
	}
	if d.off != payloadLen {
		return 0, fmt.Errorf("%w: %d payload bytes unconsumed", ErrBadRecord, payloadLen-d.off)
	}
	copy(r.Digest[:], b[headerSize+payloadLen:total])
	return total, nil
}
