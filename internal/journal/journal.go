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
// first record so a chain walk can start at any segment boundary. The
// open segment grows by appends under Journal.mu; rotation seals it
// (see seal), after which nothing writes it again.
type segment struct {
	firstSeq    uint64
	count       int
	startDigest [DigestSize]byte
	buf         []byte
	offs        []uint32 // offset of each record in buf
}

// maxSegmentBytes rotates a segment early once its buffer reaches 2
// GiB, long before a uint32 offset could wrap: one record is at most
// headerSize + maxPayload + DigestSize bytes.
const maxSegmentBytes = 1 << 31

// seal copies the segment's records to exactly their length,
// releasing the append slack, when rotation retires it. Its offsets,
// 4 B a record, are allocated once for SegmentRecords and kept as they
// are.
func (s *segment) seal() {
	buf := make([]byte, len(s.buf))
	copy(buf, s.buf)
	s.buf = buf
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
func (j *Journal) Dropped() int64 { return j.met.dropped.Value() }

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

	if j.cur == nil || j.cur.count >= j.cfg.SegmentRecords || len(j.cur.buf) >= maxSegmentBytes {
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
	seg.offs = append(seg.offs, uint32(off))
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
// oldest ring segment when the memory window is full, and opens the
// next segment with room for as many bytes as the sealed one holds:
// traffic changes slowly from segment to segment, so the open buffer
// rarely grows and never sits far above its records. Caller holds mu.
func (j *Journal) rotateLocked() {
	size := j.cfg.SegmentRecords * 64
	if j.cur != nil {
		j.cur.seal()
		size = len(j.cur.buf)
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
		buf:         make([]byte, 0, size),
		offs:        make([]uint32, 0, j.cfg.SegmentRecords),
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
	var r Record
	for off := 0; off < len(seg.buf); {
		n, err := decodeInto(seg.buf[off:], &r)
		if err != nil {
			seq := seg.firstSeq + uint64(len(seg.offs))
			return nil, fmt.Errorf("journal: %s at offset %d: %w", path, off, &seqError{seq, err})
		}
		seg.offs = append(seg.offs, uint32(off))
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

// memSegments snapshots the memory segments overlapping [from, to],
// oldest first. Sealed segments are immutable and are shared as they
// are; only the open one is copied, as a header over the records
// published so far (appends only ever write past them).
func (j *Journal) memSegments(from, to uint64) []*segment {
	j.mu.Lock()
	defer j.mu.Unlock()
	var segs []*segment
	overlaps := func(s *segment) bool {
		return s.count > 0 && s.firstSeq <= to && s.firstSeq+uint64(s.count)-1 >= from
	}
	for _, s := range j.ring {
		if overlaps(s) {
			segs = append(segs, s)
		}
	}
	if s := j.cur; s != nil && overlaps(s) {
		segs = append(segs, &segment{
			firstSeq:    s.firstSeq,
			count:       s.count,
			startDigest: s.startDigest,
			buf:         s.buf[:len(s.buf):len(s.buf)],
			offs:        s.offs[:s.count:s.count],
		})
	}
	return segs
}

// walk decodes the retained records with sequence numbers in
// [from, to], in order, and hands each to visit with its segment and
// its sequence number by position; a false return stops the walk. Each
// record is decoded into scratch when scratch is non-nil (visit must
// then copy out what it keeps), into a new Record otherwise. The memory
// ring is snapshotted before the spill index, so a segment evicted and
// spilled in between is seen twice rather than not at all, and the
// second copy is skipped. Spilled segments are walked first, one file
// in memory at a time, then the memory ring. walk returns the error of
// the first record or spill file that does not decode.
func (j *Journal) walk(from, to uint64, scratch *Record, visit func(seg *segment, seq uint64, r *Record) bool) error {
	mem := j.memSegments(from, to)
	j.fmu.Lock()
	files := append([]spillFile(nil), j.files...)
	j.fmu.Unlock()
	next := from // lowest sequence number not yet visited
	walkSeg := func(seg *segment) (bool, error) {
		for i, off := range seg.offs {
			seq := seg.firstSeq + uint64(i)
			if seq < next {
				continue
			}
			if seq > to {
				return false, nil
			}
			r := scratch
			if r == nil {
				r = new(Record)
			}
			if _, err := decodeInto(seg.buf[off:], r); err != nil {
				return false, fmt.Errorf("journal: %w", &seqError{seq, err})
			}
			next = seq + 1
			if !visit(seg, seq, r) {
				return false, nil
			}
		}
		return true, nil
	}
	for _, sf := range files {
		if sf.lastSeq < next || sf.firstSeq > to {
			continue
		}
		seg, err := readSpill(sf.path)
		if err != nil {
			return err
		}
		if more, err := walkSeg(seg); !more || err != nil {
			return err
		}
	}
	for _, seg := range mem {
		if more, err := walkSeg(seg); !more || err != nil {
			return err
		}
	}
	return nil
}

// Read returns the decoded records with sequence numbers in [from, to],
// in order, from disk and memory combined. Records outside the
// retained window are simply absent from the result. When a record
// fails to decode, Read returns the records read before it along with
// the error.
func (j *Journal) Read(from, to uint64) ([]*Record, error) {
	var out []*Record
	err := j.scan(from, to, nil, func(r *Record) {
		out = append(out, r)
	})
	return out, err
}

// Scan is Read without the slice: it decodes the records with sequence
// numbers in [from, to], in order, each into one reused Record, and
// hands each to visit. The Record and the slices it holds are valid
// only until visit returns, so visit must copy out what it keeps. A
// scan over the whole window therefore holds one decoded record at a
// time. When a record fails to decode, Scan stops there and returns
// the error, after visiting the records before it.
func (j *Journal) Scan(from, to uint64, visit func(r *Record)) error {
	return j.scan(from, to, new(Record), visit)
}

// scan serves Read and Scan; scratch is passed on to walk.
func (j *Journal) scan(from, to uint64, scratch *Record, visit func(r *Record)) error {
	if from == 0 {
		from = 1
	}
	if to < from {
		return fmt.Errorf("journal: bad range [%d, %d]", from, to)
	}
	return j.walk(from, to, scratch, func(_ *segment, _ uint64, r *Record) bool {
		visit(r)
		return true
	})
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
// boundary, and at the zero digest for seq 1. It decodes every record
// into one reused Record and hashes with its own hasher, so a walk over
// the whole window allocates next to nothing and never holds the append
// lock.
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
	h := sha256.New()
	var (
		want    [DigestSize]byte
		scratch Record
		lastSeq uint64
	)
	body := make([]byte, 0, 256)
	walked := 0
	err := j.walk(from, to, &scratch, func(seg *segment, seq uint64, r *Record) bool {
		walked++
		if walked > 1 && r.Seq != lastSeq+1 {
			res.FirstBadSeq = r.Seq
			res.Detail = fmt.Sprintf("sequence gap: %d follows %d", r.Seq, lastSeq)
			return false
		}
		lastSeq = r.Seq
		if walked == 1 && !anchored {
			// from is older than retention or sits at its boundary:
			// anchor at the segment's start digest when the first record
			// opens it; otherwise the first record can only be checked
			// structurally.
			if seq != seg.firstSeq {
				prev = r.Digest
				return true
			}
			prev = seg.startDigest
		}
		body = appendBody(body[:0], r)
		h.Reset()
		h.Write(prev[:])
		h.Write(body)
		h.Sum(want[:0])
		if want != r.Digest {
			res.FirstBadSeq = r.Seq
			res.Detail = fmt.Sprintf("chain digest mismatch at seq %d", r.Seq)
			return false
		}
		prev = r.Digest
		return true
	})
	switch {
	case res.FirstBadSeq != 0:
	case err != nil:
		// The walk stopped at a record that no longer decodes; name it.
		var se *seqError
		if errors.As(err, &se) {
			res.FirstBadSeq = se.seq
		}
		res.Detail = err.Error()
	case walked == 0:
		res.Detail = "no records in range"
	default:
		res.OK = true
		res.Records = walked
		res.Head = fmt.Sprintf("%x", prev)
	}
	return res
}
