// WAL segment format and recovery.
//
// Each shard appends to its own segment file "<path>.<shard>". A segment
// starts with a 10-byte magic and holds framed records:
//
//	[4B length] [4B checksum] [8B sequence] [payload…]
//
// checksum = uint32(xxhash(payload)) XOR mix(sequence), so a bitflip in
// either the payload or the sequence field is detected; the payload hash is
// computed outside the shard lock and only the cheap XOR happens inside.
// The sequence number is store-wide and strictly increasing within a
// segment, which lets replay restore global insertion order across segments
// and filter the residue a crashed Seal left behind (every record with
// seq <= the seal marker's maxseq already lives in a sealed run).
//
// Each record is appended to exactly one segment and no segment is ever
// rewritten — Seal only truncates — so replay never meets two copies of one
// sequence outside that sealed residue.
//
// Recovery rules, per segment: a torn record header or payload at any point
// ends replay of that segment (crash mid-append); a framed record whose
// checksum or parse fails is skipped and counted (historic corruption);
// appends resume at the end of the valid prefix, overwriting torn residue —
// the seed implementation appended after the tear, leaving every later
// record unreachable to replay.
package sirendb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

const (
	segMagic     = "SIRENSEG1\n"
	recHdrSize   = 16 // length + checksum + sequence
	maxRecordLen = 64 << 20
)

func seqMix(seq uint64) uint32 { return uint32(seq) ^ uint32(seq>>32) }

func segmentPath(base string, i int) string {
	return base + "." + strconv.Itoa(i)
}

// encodeRecords frames ms into one contiguous buffer with zeroed checksum
// and sequence fields, returning each record's offset and payload hash so
// insertShard can patch the sequence in under the shard lock. A message
// exceeding maxRecordLen is rejected up front: replay treats an oversized
// length field as a torn tail, so writing one would make the record — and
// every record after it in the segment — silently unreplayable.
func encodeRecords(ms []wire.Message) (buf []byte, offs []int, sums []uint32, err error) {
	offs = make([]int, len(ms))
	sums = make([]uint32, len(ms))
	var hdr [recHdrSize]byte
	for i := range ms {
		payload := wire.Encode(ms[i])
		if len(payload) > maxRecordLen {
			return nil, nil, nil, fmt.Errorf("sirendb: message of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordLen)
		}
		offs[i] = len(buf)
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
		sums[i] = uint32(xxhash.Sum64(payload))
	}
	return buf, offs, sums, nil
}

func patchRecordSeq(buf []byte, off int, payloadSum uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[off+4:], payloadSum^seqMix(seq))
	binary.LittleEndian.PutUint64(buf[off+8:], seq)
}

type segmentFile struct {
	index int
	path  string
}

// discoverSegments lists existing "<base>.<n>" segment files in ascending
// index order, ignoring the lock file and temporaries.
func discoverSegments(base string) ([]segmentFile, error) {
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sirendb: %w", err)
	}
	var segs []segmentFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), name+".") {
			continue
		}
		idx, err := strconv.Atoi(e.Name()[len(name)+1:])
		if err != nil || idx < 0 {
			continue // ".lock", seal artifacts, or unrelated
		}
		segs = append(segs, segmentFile{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// openSegments replays everything on disk and, on a writable open, leaves
// each shard with an append-ready WAL handle. Called once from OpenOptions,
// before any concurrency exists.
//
// A read-only open is the serving-tier open: sealed runs attach in O(index),
// every segment replays from a read-only handle, and nothing on disk is
// created, repaired, truncated, or swept. The shared lock guarantees no
// writer is live (a writer's exclusive lock would have excluded us), so the
// on-disk state is quiescent.
func (db *DB) openSegments() error {
	if err := refuseRetiredFormats(db.path); err != nil {
		return err
	}
	// Attach the sealed tier — O(index) per run, no row replay — and sweep
	// debris from a seal that never committed. Sets the sealed-residue floor
	// the segment replay below filters against, so a crash between Seal's
	// commit marker and its segment truncation rolls forward here.
	if err := db.loadRuns(); err != nil {
		return err
	}
	segs, err := discoverSegments(db.path)
	if err != nil {
		return err
	}
	created := false
	if !db.opts.ReadOnly {
		have := make(map[int]bool, len(segs))
		for _, sf := range segs {
			have[sf.index] = true
		}
		for i, s := range db.shards {
			segPath := segmentPath(db.path, i)
			f, err := os.OpenFile(segPath, os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("sirendb: opening %s: %w", segPath, err)
			}
			created = created || !have[i]
			validEnd, err := db.replaySegment(f, segPath, true)
			if err != nil {
				_ = f.Close() // open is failing; the replay error wins
				return err
			}
			if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
				_ = f.Close() // open is failing; the seek error wins
				return fmt.Errorf("sirendb: seeking %s: %w", segPath, err)
			}
			s.wal = f
			s.written = validEnd
			s.synced.Store(validEnd)
		}
	}
	// Every segment without a writable handle: all of them on a read-only
	// open; on a writable one, leftovers from a larger previous shard count.
	// Hash routing folds their rows into the current shards; a writable open
	// remembers the leftovers so the next Seal, which seals their rows, can
	// delete them. Until then they are never written.
	for _, sf := range segs {
		if !db.opts.ReadOnly && sf.index < len(db.shards) {
			continue
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return fmt.Errorf("sirendb: opening %s: %w", sf.path, err)
		}
		_, err = db.replaySegment(f, sf.path, false)
		_ = f.Close() // read-only replay handle; nothing durable at stake
		if err != nil {
			return err
		}
		if !db.opts.ReadOnly {
			db.staleSegs = append(db.staleSegs, sf.path)
		}
	}
	for _, s := range db.shards {
		s.rebuildIndex()
	}
	if created {
		if err := fsyncDir(db.dir); err != nil {
			return fmt.Errorf("sirendb: %w", err)
		}
	}
	return nil
}

// refuseRetiredFormats fails the open of a store left in an on-disk format
// this package no longer reads: the commit marker of the retired Compact
// transaction ("base.compact-commit", whose fsynced temps would be the only
// copy of some rows), or a pre-segment single-file WAL at the base path
// itself. Opening either as segments would silently serve an empty or
// partial store over that data, so both modes refuse instead.
func refuseRetiredFormats(base string) error {
	for _, r := range []struct{ path, what string }{
		{base + ".compact-commit", "an uncompleted compaction"},
		{base, "a pre-segment single-file WAL"},
	} {
		if _, err := os.Stat(r.path); err == nil {
			return fmt.Errorf("sirendb: %s holds %s, a retired on-disk format; refusing to open", r.path, r.what)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("sirendb: %w", err)
		}
	}
	return nil
}

// replaySegment reads every intact record of one segment file, routing each
// row to its shard by hash (the segment's nominal owner is only a locality
// hint — records in the "wrong" segment still land correctly). It returns
// the end of the valid prefix — where appends must resume. repairHeader
// rewrites a missing/torn magic on writable active segments; leftover
// segments are opened read-only and must not be mutated.
func (db *DB) replaySegment(f *os.File, name string, repairHeader bool) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("sirendb: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Empty or torn-at-creation file: (re)write the magic so the
			// segment is well-formed before any record lands.
			if repairHeader {
				if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
					return 0, fmt.Errorf("sirendb: writing segment header %s: %w", name, err)
				}
			}
			return int64(len(segMagic)), nil
		}
		return 0, fmt.Errorf("sirendb: reading %s: %w", name, err)
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("sirendb: %s is not a sirendb WAL segment (bad magic)", name)
	}
	off := int64(len(segMagic))
	var hdr [recHdrSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // clean end or torn header
			}
			return 0, fmt.Errorf("sirendb: replaying %s: %w", name, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		seq := binary.LittleEndian.Uint64(hdr[8:16])
		if length > maxRecordLen {
			return off, nil // out-of-bounds length: treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn payload
			}
			return 0, fmt.Errorf("sirendb: replaying %s: %w", name, err)
		}
		recEnd := off + recHdrSize + int64(length)
		if uint32(xxhash.Sum64(payload))^seqMix(seq) != sum {
			// An in-bounds corrupt length lands here too: framing may now be
			// lost, but scanning on recovers any later intact records.
			db.corrupt.Add(1)
			off = recEnd
			continue
		}
		msg, err := wire.Parse(payload)
		if err != nil {
			db.corrupt.Add(1)
			off = recEnd
			continue
		}
		off = recEnd
		if seq <= db.sealedSeq {
			// Sealed residue: the row's authoritative copy lives in a run
			// (Seal committed its marker but crashed before truncating this
			// segment). Not corruption — just roll-forward leftovers.
			continue
		}
		if cur := db.seq.Load(); seq > cur {
			db.seq.Store(seq)
		}
		db.shards[db.shardIndex(msg)].appendReplay(msg, seq)
	}
}

// fsyncDir flushes a directory's entries (renames, creates, removes) to
// stable storage — the step that makes an os.Rename crash-durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
