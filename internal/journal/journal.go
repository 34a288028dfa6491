package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes New. The zero value of every field selects a
// sensible default; a zero Config is a valid in-memory journal.
type Config struct {
	// Cap bounds how many records the memory ring holds before the
	// oldest segment is evicted (spilled to disk, or aged out when spill
	// is off). Defaults to DefaultCap.
	Cap int
	// SegmentRecords is the rotation grain: records per segment.
	// Defaults to DefaultSegmentRecords.
	SegmentRecords int
	// SpillDir, when non-empty, receives evicted segments as files
	// written by one background goroutine. Empty disables spill: evicted
	// records age out of the window.
	SpillDir string
	// SpillQueue bounds the segments waiting for the spill goroutine; a
	// full queue drops the evicted segment (counted in Dropped).
	// Defaults to DefaultSpillQueue.
	SpillQueue int
	// SpillSegments bounds the segment files kept on disk; the oldest is
	// deleted when the bound is exceeded. Defaults to
	// DefaultSpillSegments.
	SpillSegments int
	// CheckpointEvery emits one checkpoint record per that many appended
	// records, when a checkpoint source is set. 0 takes
	// DefaultCheckpointEvery; negative disables periodic checkpoints.
	CheckpointEvery int
}

// Defaults for Config fields left zero.
const (
	DefaultCap             = 65536
	DefaultSegmentRecords  = 1024
	DefaultSpillQueue      = 8
	DefaultSpillSegments   = 256
	DefaultCheckpointEvery = 1024
)

func (c Config) withDefaults() Config {
	if c.Cap <= 0 {
		c.Cap = DefaultCap
	}
	if c.SegmentRecords <= 0 {
		c.SegmentRecords = DefaultSegmentRecords
	}
	if c.SegmentRecords > c.Cap {
		c.SegmentRecords = c.Cap
	}
	if c.SpillQueue <= 0 {
		c.SpillQueue = DefaultSpillQueue
	}
	if c.SpillSegments <= 0 {
		c.SpillSegments = DefaultSpillSegments
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	return c
}

// segment is one rotation window: encoded records (digests included)
// in one contiguous buffer, plus the chain digest that preceded its
// first record so a chain walk can start at any segment boundary.
type segment struct {
	firstSeq    uint64
	count       int
	startDigest [DigestSize]byte
	buf         []byte
	offs        []int // offset of each record in buf
}

// spillFile is the index entry for one on-disk segment.
type spillFile struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
}

// Journal is a bounded, hash-chained event log. All methods are safe
// for concurrent use; Append-side calls go through the Writer facade,
// which is nil-safe and therefore free when journaling is disabled.
type Journal struct {
	cfg Config
	met Metrics

	mu       sync.Mutex
	cur      *segment
	ring     []*segment // evicted-from-cur order, oldest first
	maxRing  int        // ring + cur segments held in memory
	nextSeq  uint64     // next sequence number (first record is 1)
	head     [DigestSize]byte
	counts   [KindMax]uint64 // records appended, by kind
	sinceCp  int
	hasher   hash.Hash
	scratch  []byte
	closed   bool
	cpSource func() Checkpoint
	// inCheckpoint breaks the append -> periodic checkpoint recursion.
	inCheckpoint bool

	// Spill side. files is guarded by fmu so reads don't block appends.
	spillCh chan *segment
	spillWG sync.WaitGroup
	backlog atomic.Int64
	fmu     sync.Mutex
	files   []spillFile
}

// New builds a journal. The spill directory, when configured, is
// created if missing; stale segment files from a previous run are
// ignored (their chain does not connect to this run's).
func New(cfg Config) (*Journal, error) {
	cfg = cfg.withDefaults()
	j := &Journal{
		cfg:     cfg,
		maxRing: (cfg.Cap + cfg.SegmentRecords - 1) / cfg.SegmentRecords,
		nextSeq: 1,
		hasher:  sha256.New(),
		scratch: make([]byte, 0, DigestSize),
	}
	if j.maxRing < 1 {
		j.maxRing = 1
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: spill dir: %w", err)
		}
		j.spillCh = make(chan *segment, cfg.SpillQueue)
		j.spillWG.Add(1)
		go j.spiller()
	}
	return j, nil
}

// Writer returns the nil-safe append facade for this journal.
func (j *Journal) Writer() *Writer { return &Writer{j: j} }

// Metrics returns the journal's live counters for registry export.
func (j *Journal) Metrics() *Metrics { return &j.met }

// SetCheckpointSource installs fn as the snapshot provider for periodic
// and explicit checkpoints. fn is called outside the journal lock.
func (j *Journal) SetCheckpointSource(fn func() Checkpoint) {
	j.mu.Lock()
	j.cpSource = fn
	j.mu.Unlock()
}

// Close stops the spill goroutine after draining its queue. Appends
// after Close are dropped silently; the in-memory window stays
// readable.
func (j *Journal) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.mu.Unlock()
	if j.spillCh != nil {
		close(j.spillCh)
		j.spillWG.Wait()
	}
}

// Head returns the chain head: the sequence number and digest of the
// most recently appended record (0 and the zero digest when empty).
func (j *Journal) Head() (uint64, [DigestSize]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1, j.head
}

// Dropped returns how many records were lost to a full spill queue (or
// to eviction racing a closed journal) — the readiness signal.
func (j *Journal) Dropped() int64 { return j.met.dropped.Load() }

// SpillBacklog returns how many evicted segments are queued for the
// spill goroutine — the other readiness signal.
func (j *Journal) SpillBacklog() int64 { return j.backlog.Load() }

// Bounds reports the oldest and newest sequence numbers currently
// readable (disk and memory combined). ok is false when the journal is
// empty.
func (j *Journal) Bounds() (oldest, newest uint64, ok bool) {
	j.mu.Lock()
	newest = j.nextSeq - 1
	switch {
	case len(j.ring) > 0:
		oldest = j.ring[0].firstSeq
	case j.cur != nil && j.cur.count > 0:
		oldest = j.cur.firstSeq
	}
	j.mu.Unlock()
	j.fmu.Lock()
	if len(j.files) > 0 && (oldest == 0 || j.files[0].firstSeq < oldest) {
		oldest = j.files[0].firstSeq
	}
	j.fmu.Unlock()
	return oldest, newest, oldest != 0 && newest >= oldest
}

// append assigns the next sequence number, encodes r into the current
// segment, extends the hash chain, and handles rotation and periodic
// checkpoints. It is the single write path for every record kind.
func (j *Journal) append(r *Record) {
	t0 := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	r.Seq = j.nextSeq
	j.nextSeq++
	if r.TimeNs == 0 {
		r.TimeNs = t0.UnixNano()
	}
	if r.Kind == KindCheckpoint && r.Checkpoint != nil {
		r.Checkpoint.KindCounts = append([]uint64(nil), j.counts[:]...)
	}
	j.counts[r.Kind]++

	if j.cur == nil || j.cur.count >= j.cfg.SegmentRecords {
		j.rotateLocked()
	}
	seg := j.cur
	off := len(seg.buf)
	seg.buf = appendBody(seg.buf, r)

	j.hasher.Reset()
	j.hasher.Write(j.head[:])
	j.hasher.Write(seg.buf[off:])
	j.scratch = j.hasher.Sum(j.scratch[:0])
	copy(j.head[:], j.scratch)
	copy(r.Digest[:], j.scratch)
	seg.buf = append(seg.buf, j.scratch...)
	seg.offs = append(seg.offs, off)
	seg.count++
	grew := len(seg.buf) - off

	needCp := false
	if r.Kind == KindCheckpoint {
		j.sinceCp = 0
	} else if j.cfg.CheckpointEvery > 0 && j.cpSource != nil && !j.inCheckpoint {
		j.sinceCp++
		if j.sinceCp >= j.cfg.CheckpointEvery {
			j.inCheckpoint = true
			needCp = true
		}
	}
	j.mu.Unlock()

	j.met.appended.Add(1)
	j.met.bytes.Add(int64(grew))
	j.met.Append.ObserveSince(t0)

	if needCp {
		j.Checkpoint()
		j.mu.Lock()
		j.inCheckpoint = false
		j.mu.Unlock()
	}
}

// Checkpoint appends one checkpoint record from the installed source.
// It is a no-op without a source.
func (j *Journal) Checkpoint() {
	j.mu.Lock()
	fn := j.cpSource
	j.mu.Unlock()
	if fn == nil {
		return
	}
	cp := fn()
	j.append(&Record{Kind: KindCheckpoint, Plane: -1, Checkpoint: &cp})
}

// rotateLocked seals the current segment into the ring, evicting the
// oldest ring segment when the memory window is full. Caller holds mu.
func (j *Journal) rotateLocked() {
	if j.cur != nil {
		j.ring = append(j.ring, j.cur)
	}
	if len(j.ring)+1 > j.maxRing {
		old := j.ring[0]
		// Shift in place: reslicing to j.ring[1:] would leave old in the
		// backing array, reachable until an append reallocates it, so the
		// window would hold up to twice Cap records.
		n := copy(j.ring, j.ring[1:])
		j.ring[n] = nil
		j.ring = j.ring[:n]
		j.evict(old)
	}
	// append has already claimed this record's sequence number, so the
	// segment opened for it starts one behind nextSeq.
	j.cur = &segment{
		firstSeq:    j.nextSeq - 1,
		startDigest: j.head,
		buf:         make([]byte, 0, j.cfg.SegmentRecords*64),
		offs:        make([]int, 0, j.cfg.SegmentRecords),
	}
}

// evict hands one aged-out segment to the spill goroutine, or lets it
// go. With spill configured, a full queue is data loss against the
// spill contract and is counted as dropped; without spill, aging out of
// a bounded window is normal operation.
func (j *Journal) evict(seg *segment) {
	if j.spillCh == nil {
		return
	}
	select {
	case j.spillCh <- seg:
		j.backlog.Add(1)
	default:
		j.met.dropped.Add(int64(seg.count))
	}
}

// Spill file layout: a 48-byte header (magic, version, first sequence,
// record count, start digest) followed by the segment's raw record
// bytes.
const (
	spillMagic      = 0x4c50534a42 // "BJSPL"
	spillHeaderSize = 8 + 8 + 8 + DigestSize
)

// spiller drains evicted segments to disk, one file per segment, and
// prunes the oldest files past the configured bound.
func (j *Journal) spiller() {
	defer j.spillWG.Done()
	for seg := range j.spillCh {
		j.backlog.Add(-1)
		if err := j.writeSpill(seg); err != nil {
			j.met.dropped.Add(int64(seg.count))
			continue
		}
		j.met.spilled.Add(1)
	}
}

func (j *Journal) writeSpill(seg *segment) error {
	hdr := make([]byte, 0, spillHeaderSize)
	hdr = binary.LittleEndian.AppendUint64(hdr, spillMagic)
	hdr = binary.LittleEndian.AppendUint64(hdr, seg.firstSeq)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(seg.count))
	hdr = append(hdr, seg.startDigest[:]...)
	path := filepath.Join(j.cfg.SpillDir, fmt.Sprintf("seg-%020d.jrn", seg.firstSeq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(hdr, seg.buf...), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	j.fmu.Lock()
	j.files = append(j.files, spillFile{path: path, firstSeq: seg.firstSeq, lastSeq: seg.firstSeq + uint64(seg.count) - 1})
	sort.Slice(j.files, func(a, b int) bool { return j.files[a].firstSeq < j.files[b].firstSeq })
	var pruned []string
	for len(j.files) > j.cfg.SpillSegments {
		pruned = append(pruned, j.files[0].path)
		j.files = j.files[1:]
	}
	j.fmu.Unlock()
	for _, p := range pruned {
		os.Remove(p)
	}
	return nil
}

// readSpill loads and decodes one spilled segment.
func readSpill(path string) (*segment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < spillHeaderSize || binary.LittleEndian.Uint64(b) != spillMagic {
		return nil, fmt.Errorf("journal: %s: %w", path, ErrBadRecord)
	}
	seg := &segment{
		firstSeq: binary.LittleEndian.Uint64(b[8:]),
		count:    int(binary.LittleEndian.Uint64(b[16:])),
	}
	copy(seg.startDigest[:], b[24:24+DigestSize])
	seg.buf = b[spillHeaderSize:]
	off := 0
	for off < len(seg.buf) {
		_, n, err := Decode(seg.buf[off:])
		if err != nil {
			seq := seg.firstSeq + uint64(len(seg.offs))
			return nil, fmt.Errorf("journal: %s at offset %d: %w", path, off, &seqError{seq, err})
		}
		seg.offs = append(seg.offs, off)
		off += n
	}
	if len(seg.offs) != seg.count {
		return nil, fmt.Errorf("journal: %s: %d records, header says %d: %w",
			path, len(seg.offs), seg.count, ErrBadRecord)
	}
	return seg, nil
}

// seqError names the record that failed to decode.
type seqError struct {
	seq uint64
	err error
}

func (e *seqError) Error() string { return fmt.Sprintf("seq %d: %v", e.seq, e.err) }
func (e *seqError) Unwrap() error { return e.err }

// records decodes the segment's records with seq in [from, to].
func (seg *segment) records(from, to uint64, out []*Record) ([]*Record, error) {
	for i, off := range seg.offs {
		seq := seg.firstSeq + uint64(i)
		if seq < from {
			continue
		}
		if seq > to {
			break
		}
		r, _, err := Decode(seg.buf[off:])
		if err != nil {
			return out, fmt.Errorf("journal: %w", &seqError{seq, err})
		}
		out = append(out, r)
	}
	return out, nil
}

// memSegments snapshots the in-memory segments overlapping [from, to].
// Segment buffers are append-only once records are published, so the
// snapshot can be decoded outside the lock; offs is copied because the
// slice header may grow.
func (j *Journal) memSegments(from, to uint64) []*segment {
	j.mu.Lock()
	defer j.mu.Unlock()
	var segs []*segment
	take := func(s *segment) {
		if s == nil || s.count == 0 {
			return
		}
		last := s.firstSeq + uint64(s.count) - 1
		if last < from || s.firstSeq > to {
			return
		}
		segs = append(segs, &segment{
			firstSeq:    s.firstSeq,
			count:       s.count,
			startDigest: s.startDigest,
			buf:         s.buf[:s.offs[s.count-1]+recordSize(s.buf, s.offs[s.count-1])],
			offs:        append([]int(nil), s.offs[:s.count]...),
		})
	}
	for _, s := range j.ring {
		take(s)
	}
	take(j.cur)
	return segs
}

// recordSize reads one record's full wire size from its header.
func recordSize(buf []byte, off int) int {
	return headerSize + int(binary.LittleEndian.Uint32(buf[off+24:])) + DigestSize
}

// Read returns the decoded records with sequence numbers in [from, to],
// in order, from disk and memory combined. Records outside the
// retained window are simply absent from the result. When a record
// fails to decode, Read returns the records read before it along with
// the error.
func (j *Journal) Read(from, to uint64) ([]*Record, error) {
	if from == 0 {
		from = 1
	}
	if to < from {
		return nil, fmt.Errorf("journal: bad range [%d, %d]", from, to)
	}
	var out []*Record
	j.fmu.Lock()
	files := append([]spillFile(nil), j.files...)
	j.fmu.Unlock()
	for _, sf := range files {
		if sf.lastSeq < from || sf.firstSeq > to {
			continue
		}
		seg, err := readSpill(sf.path)
		if err != nil {
			return out, err
		}
		if out, err = seg.records(from, to, out); err != nil {
			return out, err
		}
	}
	memFrom := from
	if n := len(out); n > 0 {
		memFrom = out[n-1].Seq + 1
	}
	for _, seg := range j.memSegments(memFrom, to) {
		var err error
		if out, err = seg.records(memFrom, to, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// VerifyResult reports one chain walk.
type VerifyResult struct {
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
	Records int    `json:"records"`
	OK      bool   `json:"ok"`
	// FirstBadSeq is the sequence number of the first record whose
	// recomputed chain digest does not match its stored digest, or that
	// no longer decodes (0 when the chain is intact).
	FirstBadSeq uint64 `json:"first_bad_seq,omitempty"`
	Detail      string `json:"detail,omitempty"`
	// Head is the stored digest of the last verified record, hex.
	Head string `json:"head,omitempty"`
}

// Verify walks the hash chain over [from, to]: each record's body is
// re-encoded from its decoded form (the layout is canonical) and hashed
// against its predecessor's digest; the first mismatch, or the first
// record that no longer decodes, names the exact tampered or corrupted
// record. The walk is anchored at the predecessor record when it is
// still retained, at the segment start digest when from is a retention
// boundary, and at the zero digest for seq 1. It hashes with its own
// hasher, so a long walk never holds the append lock.
func (j *Journal) Verify(from, to uint64) VerifyResult {
	j.met.chainVerifies.Add(1)
	if from == 0 {
		from = 1
	}
	res := VerifyResult{From: from, To: to}
	if to < from {
		res.Detail = fmt.Sprintf("bad range [%d, %d]", from, to)
		return res
	}
	// Anchor: the predecessor record's stored digest, if available.
	prev := [DigestSize]byte{}
	anchored := from == 1
	if from > 1 {
		if preds, err := j.Read(from-1, from-1); err == nil && len(preds) == 1 {
			prev = preds[0].Digest
			anchored = true
		}
	}
	recs, readErr := j.Read(from, to)
	if len(recs) == 0 && readErr == nil {
		res.Detail = "no records in range"
		return res
	}
	if !anchored && len(recs) > 0 {
		// from is older than retention or sits at its boundary: anchor
		// at the containing segment's start digest when the first read
		// record opens a segment; otherwise the first record can only be
		// structurally checked.
		if d, ok := j.segmentStart(recs[0].Seq); ok {
			prev = d
			anchored = true
		}
	}
	h := sha256.New()
	var want [DigestSize]byte
	body := make([]byte, 0, 256)
	for i, r := range recs {
		if i > 0 && r.Seq != recs[i-1].Seq+1 {
			res.FirstBadSeq = r.Seq
			res.Detail = fmt.Sprintf("sequence gap: %d follows %d", r.Seq, recs[i-1].Seq)
			return res
		}
		if i == 0 && !anchored {
			prev = r.Digest
			continue
		}
		body = appendBody(body[:0], r)
		h.Reset()
		h.Write(prev[:])
		h.Write(body)
		h.Sum(want[:0])
		if want != r.Digest {
			res.FirstBadSeq = r.Seq
			res.Detail = fmt.Sprintf("chain digest mismatch at seq %d", r.Seq)
			return res
		}
		prev = r.Digest
	}
	if readErr != nil {
		// Read stopped at a record that no longer decodes; name it.
		var se *seqError
		if errors.As(readErr, &se) {
			res.FirstBadSeq = se.seq
		}
		res.Detail = readErr.Error()
		return res
	}
	res.OK = true
	res.Records = len(recs)
	res.Head = fmt.Sprintf("%x", prev)
	return res
}

// segmentStart returns the chain digest preceding seq when seq opens a
// retained segment (memory or disk).
func (j *Journal) segmentStart(seq uint64) ([DigestSize]byte, bool) {
	j.mu.Lock()
	for _, s := range j.ring {
		if s.firstSeq == seq {
			d := s.startDigest
			j.mu.Unlock()
			return d, true
		}
	}
	if j.cur != nil && j.cur.firstSeq == seq {
		d := j.cur.startDigest
		j.mu.Unlock()
		return d, true
	}
	j.mu.Unlock()
	j.fmu.Lock()
	defer j.fmu.Unlock()
	for _, sf := range j.files {
		if sf.firstSeq == seq {
			if seg, err := readSpill(sf.path); err == nil {
				return seg.startDigest, true
			}
		}
	}
	return [DigestSize]byte{}, false
}
