// Package runfmt is the immutable sealed-run file format of the sirendb
// storage tier — the read-optimised layer an LSM pairs with a write-ahead
// log. A run file freezes one store shard's rows at seal time into a sorted,
// checksummed, mmap-able artifact that later opens in O(index): readers map
// the file and decode only the footer and the embedded job index, never the
// rows, so opening a campaign-months store costs index size, not history
// size. Rows are decoded lazily, block by block, when a job is actually
// read.
//
// # Layout (version 1)
//
//	[10B header magic "SIRENRUN1\n"]
//	data:    blocks, each [4B payloadLen][4B checksum][payload]
//	index:   per-job, per-host extent directory (see below)
//	footer:  [8B indexOff][8B indexLen][8B indexSum][8B rows]
//	         [8B minSeq][8B maxSeq][4B version][4B reserved]
//	         [8B footer magic "SRUNFTR1"]  (64 bytes, at end of file)
//
// Rows are sorted by (JOBID, HOST, seq): every (job, host) group is
// contiguous, so one index extent — (host, offset, length, rows, seq range)
// under its job — locates a group's whole byte range. A block's payload is
// framed records ([4B recLen][8B seq][wire-encoded message]) belonging to
// exactly one (job, host) group; large groups span multiple blocks. The
// checksum is uint32(xxhash(payload)), verified when a block is first read,
// so historic bit rot is detected lazily without an O(rows) open. The index
// is covered by its own xxhash in the footer, and the footer sits at the end
// of the file — a torn tail from a crashed writer destroys the footer magic
// and the file is rejected at Open, never silently truncated.
//
// Within one (job, host) group rows are seq-ascending; across hosts of one
// job they are not. Cursors therefore k-way merge the extent streams by
// sequence number, reconstructing exactly the insertion order the WAL held.
package runfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

const (
	headerMagic = "SIRENRUN1\n"
	footerMagic = "SRUNFTR1"
	footerSize  = 64

	// Version is the current run-file format version, stamped in the footer.
	Version = 1

	blockHdrSize = 8  // payload length + checksum
	recHdrSize   = 12 // record length + sequence

	// blockTarget bounds a block's payload: the unit of checksum
	// verification and of lazy decode. Large enough to amortise the
	// per-block hash, small enough that reading one job's first rows does
	// not fault in megabytes.
	blockTarget = 128 << 10

	// maxRecordLen mirrors the WAL's record bound; a length field beyond it
	// is corruption by definition.
	maxRecordLen = 64 << 20
)

// ErrCorrupt wraps every integrity failure — bad magic, torn footer, index
// checksum mismatch, out-of-bounds extents, block checksum failures. Opens
// and reads fail loudly instead of silently dropping rows.
var ErrCorrupt = errors.New("runfmt: corrupt run file")

// Row is one sealed row: a message plus its store-wide sequence number.
type Row struct {
	Seq uint64
	Msg wire.Message
}

// extent locates one (job, host) group's contiguous block range.
type extent struct {
	host   string
	off    int64 // first block's offset
	length int64 // total bytes of the group's blocks (headers included)
	rows   int
	minSeq uint64
	maxSeq uint64
}

// jobIndex is one job's entry: its extents, host-sorted as written.
type jobIndex struct {
	job     string
	extents []extent
	rows    int
	minSeq  uint64
	maxSeq  uint64
}

// Write seals rows into a new run file at path. Rows may arrive in any
// order; they are sorted by (JOBID, HOST, seq) stably. The file is written,
// fsynced, and closed; the caller owns directory durability (fsync the
// parent dir before trusting the file across a crash). Returns the file
// size. Sealing zero rows is an error — an empty run carries no information
// an absent file doesn't.
func Write(path string, rows []Row) (int64, error) {
	if len(rows) == 0 {
		return 0, errors.New("runfmt: refusing to write an empty run")
	}
	sorted := make([]Row, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if a.Msg.JobID != b.Msg.JobID {
			return a.Msg.JobID < b.Msg.JobID
		}
		if a.Msg.Host != b.Msg.Host {
			return a.Msg.Host < b.Msg.Host
		}
		return a.Seq < b.Seq
	})

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		_ = f.Close() // abandoning the partial file; the write error wins
		_ = os.Remove(path)
		return 0, err
	}
	w := &runWriter{f: f}
	if err := w.write([]byte(headerMagic)); err != nil {
		return fail(err)
	}

	var jobs []jobIndex
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].Msg.JobID == sorted[i].Msg.JobID {
			j++
		}
		ji, err := w.writeJob(sorted[i:j])
		if err != nil {
			return fail(err)
		}
		jobs = append(jobs, ji)
		i = j
	}

	indexOff := w.off
	index := encodeIndex(jobs)
	if err := w.write(index); err != nil {
		return fail(err)
	}
	var minSeq, maxSeq uint64
	for i, ji := range jobs {
		if i == 0 || ji.minSeq < minSeq {
			minSeq = ji.minSeq
		}
		if ji.maxSeq > maxSeq {
			maxSeq = ji.maxSeq
		}
	}
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:24], xxhash.Sum64(index))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(sorted)))
	binary.LittleEndian.PutUint64(footer[32:40], minSeq)
	binary.LittleEndian.PutUint64(footer[40:48], maxSeq)
	binary.LittleEndian.PutUint32(footer[48:52], Version)
	copy(footer[56:64], footerMagic)
	if err := w.write(footer); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(path) // file state unknown after a failed close
		return 0, err
	}
	return w.off, nil
}

// runWriter tracks the write offset so extents can be recorded as blocks go
// out.
type runWriter struct {
	f   *os.File
	off int64
}

func (w *runWriter) write(b []byte) error {
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	w.off += int64(len(b))
	return nil
}

// writeJob emits one job's rows (already (host, seq)-sorted) as per-host
// extents of checksummed blocks and returns the job's index entry.
func (w *runWriter) writeJob(rows []Row) (jobIndex, error) {
	ji := jobIndex{job: rows[0].Msg.JobID, rows: len(rows), minSeq: rows[0].Seq, maxSeq: rows[0].Seq}
	for _, r := range rows {
		if r.Seq < ji.minSeq {
			ji.minSeq = r.Seq
		}
		if r.Seq > ji.maxSeq {
			ji.maxSeq = r.Seq
		}
	}
	i := 0
	for i < len(rows) {
		j := i
		for j < len(rows) && rows[j].Msg.Host == rows[i].Msg.Host {
			j++
		}
		ext, err := w.writeExtent(rows[i:j])
		if err != nil {
			return jobIndex{}, err
		}
		ji.extents = append(ji.extents, ext)
		i = j
	}
	return ji, nil
}

// writeExtent emits one (job, host) group as one or more blocks.
func (w *runWriter) writeExtent(rows []Row) (extent, error) {
	ext := extent{host: rows[0].Msg.Host, off: w.off, rows: len(rows),
		minSeq: rows[0].Seq, maxSeq: rows[len(rows)-1].Seq}
	var payload []byte
	var hdr [blockHdrSize]byte
	flush := func() error {
		if len(payload) == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(xxhash.Sum64(payload)))
		if err := w.write(hdr[:]); err != nil {
			return err
		}
		if err := w.write(payload); err != nil {
			return err
		}
		payload = payload[:0]
		return nil
	}
	var rec [recHdrSize]byte
	for _, r := range rows {
		enc := wire.Encode(r.Msg)
		if len(enc) > maxRecordLen {
			return extent{}, fmt.Errorf("runfmt: message of %d bytes exceeds the %d-byte record limit", len(enc), maxRecordLen)
		}
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(enc)))
		binary.LittleEndian.PutUint64(rec[4:12], r.Seq)
		payload = append(payload, rec[:]...)
		payload = append(payload, enc...)
		if len(payload) >= blockTarget {
			if err := flush(); err != nil {
				return extent{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return extent{}, err
	}
	ext.length = w.off - ext.off
	return ext, nil
}

// encodeIndex renders the job directory:
//
//	[4B jobCount]
//	per job:   [4B jobLen][job][4B extentCount]
//	per extent: [4B hostLen][host][8B off][8B len][8B rows][8B minSeq][8B maxSeq]
func encodeIndex(jobs []jobIndex) []byte {
	var b []byte
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		b = append(b, u32[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		b = append(b, u64[:]...)
	}
	put32(uint32(len(jobs)))
	for _, ji := range jobs {
		put32(uint32(len(ji.job)))
		b = append(b, ji.job...)
		put32(uint32(len(ji.extents)))
		for _, e := range ji.extents {
			put32(uint32(len(e.host)))
			b = append(b, e.host...)
			put64(uint64(e.off))
			put64(uint64(e.length))
			put64(uint64(e.rows))
			put64(e.minSeq)
			put64(e.maxSeq)
		}
	}
	return b
}

// Run is an opened run file: the mapped (or pread-backed) data plus the
// decoded job index. Opening is O(index); rows decode lazily on read.
// Runs are safe for concurrent readers.
type Run struct {
	path    string
	back    backing // mmap on unix, pread elsewhere
	size    int64
	dataEnd int64 // start of the index == end of the block region
	rows    int
	minSeq  uint64
	maxSeq  uint64
	version uint32
	jobs    []jobIndex
	byJob   map[string]int // job -> index into jobs
	names   []string       // job names, sorted (index order)
}

// Open maps the run file at path and decodes only its footer and job index —
// O(index) work regardless of row count. Every structural field is
// bounds-checked; a torn tail, a bad checksum, or a hostile index yields
// ErrCorrupt, never a partial silently-truncated run.
func Open(path string) (*Run, error) {
	back, size, err := openBacking(path)
	if err != nil {
		return nil, err
	}
	r := &Run{path: path, back: back, size: size}
	if err := r.load(); err != nil {
		_ = back.Close() // open is failing; the corruption error wins
		return nil, err
	}
	return r, nil
}

func (r *Run) load() error {
	if r.size < int64(len(headerMagic))+footerSize {
		return fmt.Errorf("%w: %s: %d bytes is too small for a run", ErrCorrupt, r.path, r.size)
	}
	hdr, err := r.back.Slice(0, int64(len(headerMagic)))
	if err != nil {
		return err
	}
	if string(hdr) != headerMagic {
		return fmt.Errorf("%w: %s: bad header magic", ErrCorrupt, r.path)
	}
	footer, err := r.back.Slice(r.size-footerSize, footerSize)
	if err != nil {
		return err
	}
	if string(footer[56:64]) != footerMagic {
		return fmt.Errorf("%w: %s: bad footer magic (torn tail?)", ErrCorrupt, r.path)
	}
	r.version = binary.LittleEndian.Uint32(footer[48:52])
	if r.version != Version {
		return fmt.Errorf("runfmt: %s: unsupported run format version %d", r.path, r.version)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	indexSum := binary.LittleEndian.Uint64(footer[16:24])
	r.rows = int(binary.LittleEndian.Uint64(footer[24:32]))
	r.minSeq = binary.LittleEndian.Uint64(footer[32:40])
	r.maxSeq = binary.LittleEndian.Uint64(footer[40:48])
	if indexOff < int64(len(headerMagic)) || indexLen < 0 || indexOff+indexLen != r.size-footerSize {
		return fmt.Errorf("%w: %s: index [%d,+%d) does not abut the footer", ErrCorrupt, r.path, indexOff, indexLen)
	}
	// A row needs at least a record header; a count beyond that bound can
	// only come from corruption and must not size any allocation.
	if r.rows < 0 || int64(r.rows) > r.size/recHdrSize {
		return fmt.Errorf("%w: %s: implausible row count %d", ErrCorrupt, r.path, r.rows)
	}
	index, err := r.back.Slice(indexOff, indexLen)
	if err != nil {
		return err
	}
	if xxhash.Sum64(index) != indexSum {
		return fmt.Errorf("%w: %s: index checksum mismatch", ErrCorrupt, r.path)
	}
	r.dataEnd = indexOff
	return r.decodeIndex(index)
}

// decodeIndex parses the job directory, validating every length and extent
// against the file bounds — the index is attacker-adjacent input for the
// fuzzer even though the checksum gates it in practice.
func (r *Run) decodeIndex(b []byte) error {
	bad := func(what string) error {
		return fmt.Errorf("%w: %s: index %s", ErrCorrupt, r.path, what)
	}
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[pos:])
		pos += 8
		return v, true
	}
	str := func(n uint32) (string, bool) {
		if int64(n) > int64(len(b)-pos) {
			return "", false
		}
		s := string(b[pos : pos+int(n)])
		pos += int(n)
		return s, true
	}
	nJobs, ok := u32()
	if !ok || int64(nJobs) > int64(len(b))/8 {
		return bad("job count out of bounds")
	}
	r.jobs = make([]jobIndex, 0, nJobs)
	r.byJob = make(map[string]int, nJobs)
	r.names = make([]string, 0, nJobs)
	sum := 0
	for ji := uint32(0); ji < nJobs; ji++ {
		n, ok := u32()
		if !ok {
			return bad("truncated job name length")
		}
		job, ok := str(n)
		if !ok {
			return bad("truncated job name")
		}
		nExt, ok := u32()
		if !ok || int64(nExt) > int64(len(b))/8 {
			return bad("extent count out of bounds")
		}
		entry := jobIndex{job: job, extents: make([]extent, 0, nExt)}
		for ei := uint32(0); ei < nExt; ei++ {
			hn, ok := u32()
			if !ok {
				return bad("truncated host name length")
			}
			host, ok := str(hn)
			if !ok {
				return bad("truncated host name")
			}
			off, ok1 := u64()
			length, ok2 := u64()
			rows, ok3 := u64()
			minSeq, ok4 := u64()
			maxSeq, ok5 := u64()
			if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
				return bad("truncated extent")
			}
			if off < uint64(len(headerMagic)) || length > uint64(r.dataEnd) || off+length > uint64(r.dataEnd) || off+length < off {
				return bad("extent outside the data region")
			}
			if rows > length/recHdrSize {
				return bad("implausible extent row count")
			}
			entry.extents = append(entry.extents, extent{
				host: host, off: int64(off), length: int64(length),
				rows: int(rows), minSeq: minSeq, maxSeq: maxSeq,
			})
			entry.rows += int(rows)
			if len(entry.extents) == 1 || minSeq < entry.minSeq {
				entry.minSeq = minSeq
			}
			if maxSeq > entry.maxSeq {
				entry.maxSeq = maxSeq
			}
		}
		if len(entry.extents) == 0 {
			return bad("job with no extents")
		}
		if _, dup := r.byJob[job]; dup {
			return bad("duplicate job entry")
		}
		sum += entry.rows
		r.byJob[job] = len(r.jobs)
		r.jobs = append(r.jobs, entry)
		r.names = append(r.names, job)
	}
	if pos != len(b) {
		return bad("trailing bytes")
	}
	if sum != r.rows {
		return bad("row counts disagree with footer")
	}
	if !sort.StringsAreSorted(r.names) {
		return bad("jobs not sorted")
	}
	return nil
}

// Close releases the mapping (or the file handle). Callers that hand rows
// out lazily — snapshots — must keep the Run reachable instead of closing
// it; the finalizer installed by the unix backing reclaims the mapping when
// the last reference is garbage. Close is idempotent.
func (r *Run) Close() error { return r.back.Close() }

// Path returns the run file's path.
func (r *Run) Path() string { return r.path }

// Rows reports the run's total row count (from the footer — O(1)).
func (r *Run) Rows() int { return r.rows }

// MinSeq reports the smallest sequence number stored in the run.
func (r *Run) MinSeq() uint64 { return r.minSeq }

// MaxSeq reports the largest sequence number stored in the run.
func (r *Run) MaxSeq() uint64 { return r.maxSeq }

// Size reports the file size in bytes.
func (r *Run) Size() int64 { return r.size }

// Jobs returns the run's distinct job IDs, sorted. The slice is the Run's
// own index order — callers must not mutate it.
func (r *Run) Jobs() []string { return r.names }

// HasJob reports whether the run holds any rows of job.
func (r *Run) HasJob(job string) bool {
	_, ok := r.byJob[job]
	return ok
}

// JobStats reports one job's row count and sequence range, from the index —
// O(1), no row decode.
func (r *Run) JobStats(job string) (rows int, minSeq, maxSeq uint64, ok bool) {
	i, ok := r.byJob[job]
	if !ok {
		return 0, 0, 0, false
	}
	ji := &r.jobs[i]
	return ji.rows, ji.minSeq, ji.maxSeq, true
}

// EachJob visits every job entry in sorted order with its index-level stats;
// return false to stop. O(index), no row decode.
func (r *Run) EachJob(f func(job string, rows int, minSeq, maxSeq uint64) bool) {
	for i := range r.jobs {
		ji := &r.jobs[i]
		if !f(ji.job, ji.rows, ji.minSeq, ji.maxSeq) {
			return
		}
	}
}

// Cursor streams a run's rows in ascending sequence order, k-way merging
// the per-(job, host) extent streams. Blocks decode (and checksum-verify)
// lazily as the cursor crosses them; a row is parsed only when Next returns
// it — the merge compares sequence numbers read from the record headers.
type Cursor struct {
	streams []*extentCursor
	msg     wire.Message // Next's result slot, overwritten by every call
	err     error
}

// Cursor returns a cursor over every row of the run, seq-ascending.
func (r *Run) Cursor() *Cursor {
	c := &Cursor{}
	for i := range r.jobs {
		for e := range r.jobs[i].extents {
			c.streams = append(c.streams, newExtentCursor(r, &r.jobs[i].extents[e]))
		}
	}
	return c
}

// JobCursor returns a cursor over one job's rows, seq-ascending (its host
// extents merged). A job absent from the run yields an immediately-empty
// cursor.
func (r *Run) JobCursor(job string) *Cursor {
	c := &Cursor{}
	i, ok := r.byJob[job]
	if !ok {
		return c
	}
	for e := range r.jobs[i].extents {
		c.streams = append(c.streams, newExtentCursor(r, &r.jobs[i].extents[e]))
	}
	return c
}

// Next returns the next row in sequence order. The message lives in a slot
// the cursor reuses: it is valid until the following Next call, so a caller
// keeping it copies *m (the copy shares Content, which is never reused).
// ok=false means exhausted or failed — check Err to distinguish.
func (c *Cursor) Next() (m *wire.Message, seq uint64, ok bool) {
	if c.err != nil {
		return nil, 0, false
	}
	best := -1
	var bestSeq uint64
	for i, s := range c.streams {
		seq, ok, err := s.peekSeq()
		if err != nil {
			c.err = err
			return nil, 0, false
		}
		if !ok {
			continue
		}
		if best < 0 || seq < bestSeq {
			best, bestSeq = i, seq
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	if c.err = c.streams[best].next(&c.msg); c.err != nil {
		return nil, 0, false
	}
	return &c.msg, bestSeq, true
}

// Err reports the first corruption or decode error the cursor hit; nil
// after a clean exhaustion.
func (c *Cursor) Err() error { return c.err }

// extentCursor walks one (job, host) extent block by block.
type extentCursor struct {
	r       *Run
	off     int64 // next unread block
	end     int64
	payload []byte // current block's verified payload
	pos     int    // read position within payload: the next record header
}

func newExtentCursor(r *Run, e *extent) *extentCursor {
	return &extentCursor{r: r, off: e.off, end: e.off + e.length}
}

// peekSeq reports the sequence number of the next row without consuming or
// parsing it, loading and verifying the next block when the current payload
// is exhausted, and checking that the record fits its block.
func (ec *extentCursor) peekSeq() (uint64, bool, error) {
	for ec.pos >= len(ec.payload) {
		if ec.off >= ec.end {
			return 0, false, nil
		}
		if err := ec.loadBlock(); err != nil {
			return 0, false, err
		}
	}
	if ec.pos+recHdrSize > len(ec.payload) {
		return 0, false, ec.bad("torn record header inside a verified block")
	}
	length := binary.LittleEndian.Uint32(ec.payload[ec.pos:])
	if length > maxRecordLen || ec.pos+recHdrSize+int(length) > len(ec.payload) {
		return 0, false, ec.bad("record length outside its block")
	}
	return binary.LittleEndian.Uint64(ec.payload[ec.pos+4:]), true, nil
}

// next parses the row peekSeq just reported into *m and moves past it.
func (ec *extentCursor) next(m *wire.Message) error {
	length := int(binary.LittleEndian.Uint32(ec.payload[ec.pos:]))
	ec.pos += recHdrSize
	var err error
	if *m, err = wire.Parse(ec.payload[ec.pos : ec.pos+length]); err != nil {
		return ec.bad(fmt.Sprintf("undecodable record: %v", err))
	}
	ec.pos += length
	return nil
}

func (ec *extentCursor) bad(what string) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, ec.r.path, what)
}

// loadBlock reads and checksum-verifies the block at ec.off.
func (ec *extentCursor) loadBlock() error {
	bad := func(what string) error {
		return fmt.Errorf("%w: %s: %s at offset %d", ErrCorrupt, ec.r.path, what, ec.off)
	}
	hdr, err := ec.r.back.Slice(ec.off, blockHdrSize)
	if err != nil {
		return err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(plen) > ec.end-ec.off-blockHdrSize {
		return bad("block length outside its extent")
	}
	payload, err := ec.r.back.Slice(ec.off+blockHdrSize, int64(plen))
	if err != nil {
		return err
	}
	if uint32(xxhash.Sum64(payload)) != sum {
		return bad("block checksum mismatch")
	}
	ec.off += blockHdrSize + int64(plen)
	ec.payload = payload
	ec.pos = 0
	return nil
}
