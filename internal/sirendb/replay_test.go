// Replay, durability, and recovery tests for the segmented WAL: a corruption
// matrix (torn header, torn payload, in-bounds corrupt length, mid-file
// bitflip) over single- and multi-segment stores, a crash-mid-group-commit
// simulation proving no acknowledged row is lost, process-exclusion locking,
// ErrClosed semantics, shard-count changes and a crashed Seal across one,
// the compaction (Seal) crash windows before, during and after its marker,
// and the refusal of retired on-disk formats.
package sirendb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"siren/internal/wire"
)

// spreadMsg varies (JobID, Host) so rows land on every shard.
func spreadMsg(i int, content string) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: fmt.Sprintf("job-%d", i%7), StepID: "0", PID: i,
			Hash: "abcd", Host: fmt.Sprintf("nid%06d", i%5),
			Time: 1733900000 + int64(i), Layer: wire.LayerSelf,
			Type: wire.TypeMetadata, Seq: 0, Total: 1,
		},
		Content: []byte(content),
	}
}

type recOffset struct {
	hdrOff     int // start of the 16-byte record header
	payloadOff int
	payloadLen int
	seq        uint64
}

// recordOffsets walks a segment file's framing (skipping the magic) so tests
// can corrupt records surgically.
func recordOffsets(t *testing.T, data []byte) []recOffset {
	t.Helper()
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("segment missing magic")
	}
	var recs []recOffset
	off := len(segMagic)
	for off+recHdrSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if off+recHdrSize+length > len(data) {
			break
		}
		recs = append(recs, recOffset{
			hdrOff: off, payloadOff: off + recHdrSize, payloadLen: length, seq: seq,
		})
		off += recHdrSize + length
	}
	return recs
}

// largestSegment returns the path and contents of the store segment holding
// the most records.
func largestSegment(t *testing.T, base string, shards int) (string, []byte) {
	t.Helper()
	var bestPath string
	var bestData []byte
	best := -1
	for i := 0; i < shards; i++ {
		p := segmentPath(base, i)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(recordOffsets(t, data)); n > best {
			best, bestPath, bestData = n, p, data
		}
	}
	return bestPath, bestData
}

func TestReplayCorruptionMatrix(t *testing.T) {
	const rows = 120
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"torn-header", "torn-payload", "corrupt-length", "bitflip"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "siren.wal")
				db, err := OpenOptions(path, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					if err := db.Insert(spreadMsg(i, "content-payload")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				seg, data := largestSegment(t, path, shards)
				recs := recordOffsets(t, data)
				if len(recs) < 4 {
					t.Fatalf("segment %s has only %d records", seg, len(recs))
				}
				segRows := len(recs)
				otherRows := rows - segRows
				mid := len(recs) / 2
				var wantRows, wantCorruptMin int
				switch mode {
				case "torn-header":
					// Crash mid-append: only half the last record's header
					// made it out. The record is lost, everything else is not.
					data = data[:recs[segRows-1].hdrOff+7]
					wantRows = rows - 1
				case "torn-payload":
					data = data[:recs[segRows-1].payloadOff+recs[segRows-1].payloadLen/2]
					wantRows = rows - 1
				case "corrupt-length":
					// An in-bounds garbage length misframes the stream from
					// the middle record on: rows before it and in other
					// segments survive, the rest surface as corrupt/lost.
					binary.LittleEndian.PutUint32(data[recs[mid].hdrOff:], uint32(recs[mid].payloadLen+5))
					wantRows = otherRows + mid
					wantCorruptMin = 1
				case "bitflip":
					// One flipped payload byte kills exactly that record;
					// framing stays intact so every other record replays.
					data[recs[mid].payloadOff+1] ^= 0x80
					wantRows = rows - 1
					wantCorruptMin = 1
				}
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}

				db2, err := OpenOptions(path, Options{Shards: shards})
				if err != nil {
					t.Fatalf("reopen after %s: %v", mode, err)
				}
				defer db2.Close()
				got := db2.Count()
				switch mode {
				case "corrupt-length":
					// Misframing can destroy later records in this segment
					// but never rows before the corruption or other segments.
					if got < wantRows || got >= rows {
						t.Errorf("rows = %d, want [%d, %d)", got, wantRows, rows)
					}
				default:
					if got != wantRows {
						t.Errorf("rows = %d, want %d", got, wantRows)
					}
				}
				if db2.CorruptRecords() < wantCorruptMin {
					t.Errorf("corrupt = %d, want >= %d", db2.CorruptRecords(), wantCorruptMin)
				}
				// Accounting stays sane: nothing is double-counted.
				if got+db2.CorruptRecords() > rows {
					t.Errorf("rows %d + corrupt %d exceed written %d", got, db2.CorruptRecords(), rows)
				}
			})
		}
	}
}

// TestCrashMidGroupCommit proves the group-commit contract: every row
// acknowledged by the Sync barrier survives a crash, simulated by keeping
// only each segment's fdatasync-confirmed prefix (the pessimistic model —
// nothing past the last fdatasync reached the platter) plus torn residue.
func TestCrashMidGroupCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "siren.wal")
			// A huge interval keeps the background syncer idle so the test
			// controls exactly what is durable.
			db, err := OpenOptions(path, Options{Shards: shards, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			const acked = 180
			for i := 0; i < acked; i++ {
				if err := db.Insert(spreadMsg(i, "acknowledged")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Sync(); err != nil { // durability barrier: rows 0..179 acknowledged
				t.Fatal(err)
			}
			for i := acked; i < acked+90; i++ {
				if err := db.Insert(spreadMsg(i, "in-flight")); err != nil {
					t.Fatal(err)
				}
			}

			// Crash: copy each segment truncated at its synced offset, plus
			// a few torn bytes of the unsynced tail on shard 0.
			crash := filepath.Join(dir, "after-crash")
			if err := os.Mkdir(crash, 0o755); err != nil {
				t.Fatal(err)
			}
			crashPath := filepath.Join(crash, "siren.wal")
			for i, s := range db.shards {
				data, err := os.ReadFile(segmentPath(path, i))
				if err != nil {
					t.Fatal(err)
				}
				durable := s.synced.Load()
				if int64(len(data)) < durable {
					t.Fatalf("shard %d: synced %d beyond file size %d", i, durable, len(data))
				}
				keep := data[:durable]
				if i == 0 && int64(len(data)) > durable+5 {
					keep = data[:durable+5] // torn unsynced tail
				}
				if err := os.WriteFile(segmentPath(crashPath, i), keep, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db.Close()

			db2, err := OpenOptions(crashPath, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := db2.Count(); got != acked {
				t.Errorf("replayed %d rows, want exactly the %d acknowledged", got, acked)
			}
			if db2.CorruptRecords() != 0 {
				t.Errorf("corrupt = %d after clean group-commit crash", db2.CorruptRecords())
			}
			for _, m := range db2.All() {
				if string(m.Content) != "acknowledged" {
					t.Fatalf("unacknowledged row %q replayed as durable", m.Content)
				}
			}
		})
	}
}

// TestAppendAfterTornTail pins the recovery rule that appends resume at the
// end of the valid prefix: the seed implementation appended *after* torn
// residue, making every post-crash insert unreachable to the next replay.
func TestAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Insert(msg("7", i, wire.TypeMetadata, "before"))
	}
	db.Close()
	seg := segmentPath(path, 0)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Count() != 9 {
		t.Fatalf("after tear: %d rows, want 9", db2.Count())
	}
	for i := 0; i < 5; i++ {
		if err := db2.Insert(msg("8", i, wire.TypeMetadata, "after")); err != nil {
			t.Fatal(err)
		}
	}
	db2.Close()

	db3, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Count() != 14 {
		t.Errorf("after reopen: %d rows, want 14 (post-crash appends must be replayable)", db3.Count())
	}
	if db3.CorruptRecords() != 0 {
		t.Errorf("corrupt = %d", db3.CorruptRecords())
	}
}

func TestGroupCommitLatencyBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2, SyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Insert(spreadMsg(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Without any explicit Sync, the background syncers must make every
	// appended byte durable within the latency bound (plus slack for a
	// loaded CI box).
	deadline := time.Now().Add(5 * time.Second)
	for {
		allSynced := true
		for _, s := range db.shards {
			s.mu.RLock()
			w := s.written
			s.mu.RUnlock()
			if s.synced.Load() < w {
				allSynced = false
			}
		}
		if allSynced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("group-commit syncer did not fdatasync within the latency bound")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInsertAfterCloseReturnsErrClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(msg("1", 1, wire.TypeMetadata, "x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(msg("1", 2, wire.TypeMetadata, "dropped")); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close = %v, want ErrClosed", err)
	}
	if err := db.InsertBatch([]wire.Message{msg("1", 3, wire.TypeMetadata, "dropped")}); !errors.Is(err, ErrClosed) {
		t.Errorf("InsertBatch after Close = %v, want ErrClosed", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := db.Seal(); !errors.Is(err, ErrClosed) {
		t.Errorf("Seal after Close = %v, want ErrClosed", err)
	}
	// The in-memory view stays readable, and no silent row slipped in.
	if db.Count() != 1 {
		t.Errorf("Count = %d after rejected inserts, want 1", db.Count())
	}
	// A second Close stays a no-op.
	if err := db.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	// Purely in-memory stores have no WAL to protect; Close keeps them usable.
	mem, _ := Open("")
	mem.Close()
	if err := mem.Insert(msg("1", 1, wire.TypeMetadata, "ok")); err != nil {
		t.Errorf("in-memory Insert after Close = %v", err)
	}
}

// TestSyncFailurePoisonsInserts: once a group commit fails, durability is
// already lost for an acknowledged window — further inserts must fail
// loudly (the receiver counts them in its stats) instead of acknowledging
// rows that may never become durable.
func TestSyncFailurePoisonsInserts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert(spreadMsg(1, "ok")); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected fdatasync failure")
	db.recordSyncErr(injected)
	if err := db.Insert(spreadMsg(2, "x")); !errors.Is(err, injected) {
		t.Errorf("Insert after sync failure = %v, want the sticky sync error", err)
	}
	if err := db.Sync(); !errors.Is(err, injected) {
		t.Errorf("Sync after sync failure = %v, want the sticky sync error", err)
	}
}

func TestOpenConflictReturnsErrLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Errorf("second Open = %v, want ErrLocked", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the holder: reopening after Close succeeds.
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db2.Close()
}

func TestShardCountChangeAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 60
	for i := 0; i < rows; i++ {
		db.Insert(spreadMsg(i, "v"))
	}
	db.Close()

	// Shrink: segments 2 and 3 become read-only leftovers, their rows fold
	// into shards 0 and 1.
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Count() != rows {
		t.Fatalf("after shrink: %d rows, want %d", db2.Count(), rows)
	}
	for i := rows; i < rows+10; i++ {
		db2.Insert(spreadMsg(i, "v"))
	}
	// Seal folds the leftover segments' rows into runs and removes them.
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if _, err := os.Stat(segmentPath(path, i)); !os.IsNotExist(err) {
			t.Errorf("leftover segment %d survived Seal (err=%v)", i, err)
		}
	}
	db2.Close()

	// Grow back: replay re-partitions across 8 shards.
	db3, err := OpenOptions(path, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Count() != rows+10 {
		t.Errorf("after grow: %d rows, want %d", db3.Count(), rows+10)
	}
}

// TestSealEmptyHeadRemovesLeftoverSegments: reopening a fully sealed store
// with fewer shards leaves its old segments 2 and 3 behind as leftovers that
// hold nothing unsealed. A Seal with an empty head must still remove them —
// nothing else ever does — without committing a new generation.
func TestSealEmptyHeadRemovesLeftoverSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	ms := sealCorpus(120)
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := db2.Stats().SealedGen
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if _, err := os.Stat(segmentPath(path, i)); !os.IsNotExist(err) {
			t.Errorf("leftover segment %d survived an empty-head Seal (err=%v)", i, err)
		}
	}
	if got := db2.Stats().SealedGen; got != gen {
		t.Errorf("empty-head Seal advanced the generation: %d -> %d", gen, got)
	}
	assertAll(t, db2, ms)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	assertAll(t, db3, ms)
}

// copyStoreFiles copies every regular file of a store's directory into a
// fresh directory, modelling the on-disk state a crashed process leaves.
func copyStoreFiles(t *testing.T, fromDir, toDir string) {
	t.Helper()
	entries, err := os.ReadDir(fromDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fromDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(toDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealCrashAfterMarkerAcrossShardChange pins the one window in which a
// record has two copies on disk: a Seal that committed its marker but
// crashed before truncating the segments and removing the leftovers of an
// older shard count. The runs hold every row; the segments — cross-homed
// ones included — still hold them too. Replay must drop every segment copy
// by the marker's maxseq alone, under the crashed shard count and after
// growing past the original one, so each row comes back exactly once.
func TestSealCrashAfterMarkerAcrossShardChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "siren.wal")
	ms := sealCorpus(300)
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(ms[:200]); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Shrink to 2 shards: segments 2 and 3 become leftovers whose rows are
	// re-homed in memory onto shards 0 and 1.
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.InsertBatch(ms[200:]); err != nil {
		t.Fatal(err)
	}
	db2.testCrashAfterSealCommit = true
	if err := db2.Seal(); err == nil {
		t.Fatal("injected crash did not surface")
	}
	_ = db2.Close() // poisoned store; close error is expected noise
	residue := false
	for _, i := range []int{2, 3} {
		fi, err := os.Stat(segmentPath(path, i))
		if err != nil {
			t.Fatalf("test premise broken: leftover segment %d gone before recovery: %v", i, err)
		}
		residue = residue || fi.Size() > int64(len(segMagic))
	}
	if !residue {
		t.Fatal("test premise broken: leftover segments hold no records")
	}

	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			crash := t.TempDir()
			copyStoreFiles(t, dir, crash)
			cpath := filepath.Join(crash, "siren.wal")
			db3, err := OpenOptions(cpath, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db3.Close()
			assertAll(t, db3, ms)
			if n := db3.CorruptRecords(); n != 0 {
				t.Errorf("CorruptRecords = %d, want 0", n)
			}
			if st := db3.Stats(); st.SealedGen != 1 || st.SealedRows != len(ms) {
				t.Errorf("roll-forward Stats = %+v", st)
			}
		})
	}
}

// TestCompactCrashLeavesNoDuplicates: a compaction (Seal) after a shard
// shrink whose removal of leftover segments 2 and 3 never reached the disk
// brings their records back at the next open. Every one of them is a second
// copy of a sealed row, and the marker's maxseq alone must drop them.
func TestCompactCrashLeavesNoDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 50
	ms := make([]wire.Message, rows)
	for i := range ms {
		ms[i] = spreadMsg(i, "v")
		db.Insert(ms[i])
	}
	db.Close()

	// Reopen with fewer shards and compact, but "crash" before the leftover
	// removal by restoring the stale segments afterwards.
	stale2, err := os.ReadFile(segmentPath(path, 2))
	if err != nil {
		t.Fatal(err)
	}
	stale3, err := os.ReadFile(segmentPath(path, 3))
	if err != nil {
		t.Fatal(err)
	}
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	if err := os.WriteFile(segmentPath(path, 2), stale2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(path, 3), stale3, 0o644); err != nil {
		t.Fatal(err)
	}

	db3, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	assertAll(t, db3, ms)
	if n := db3.CorruptRecords(); n != 0 {
		t.Errorf("CorruptRecords = %d, want 0", n)
	}
}

// TestCompactCrashMidRenameRecoversAllRows pins a crash in the middle of a
// compaction's segment rewrite: after growing from 2 to 8 shards a row's
// on-disk segment differs from its in-memory shard, and Seal committed its
// marker but truncated only segment 0 before dying. Segment 1 still holds
// its sealed copies. The runs must supply every row once, whichever
// segment it came from.
func TestCompactCrashMidRenameRecoversAllRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 80
	ms := make([]wire.Message, rows)
	for i := range ms {
		ms[i] = spreadMsg(i, "v")
		if err := db.Insert(ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with 8 shards: replay re-homes the two segments' rows across
	// eight in-memory shards, then Seal "crashes" right after its marker.
	db2, err := OpenOptions(path, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	db2.testCrashAfterSealCommit = true
	if err := db2.Seal(); err == nil {
		t.Fatal("injected crash did not surface")
	}
	_ = db2.Close() // poisoned store; close error is expected noise
	crash := filepath.Join(dir, "after-crash")
	if err := os.Mkdir(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	copyStoreFiles(t, dir, crash)
	cpath := filepath.Join(crash, "siren.wal")
	// Phase 3 got as far as segment 0.
	if err := os.Truncate(segmentPath(cpath, 0), int64(len(segMagic))); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(segmentPath(cpath, 1)); err != nil || fi.Size() <= int64(len(segMagic)) {
		t.Fatalf("test premise broken: segment 1 holds no residue (err=%v)", err)
	}

	db3, err := OpenOptions(cpath, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	assertAll(t, db3, ms)
	if db3.CorruptRecords() != 0 {
		t.Errorf("corrupt = %d", db3.CorruptRecords())
	}
	if st := db3.Stats(); st.SealedGen != 1 || st.SealedRows != rows {
		t.Errorf("roll-forward Stats = %+v", st)
	}
}

// TestCompactCrashBeforeCommitDiscardsTemps: a compaction (Seal) that fails
// before its commit marker — here shard 1's run cannot be created — removes
// the run it already wrote for shard 0, commits nothing and leaves the
// store writable, with the segments still authoritative.
func TestCompactCrashBeforeCommitDiscardsTemps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 40
	ms := make([]wire.Message, rows, rows+1)
	for i := range ms {
		ms[i] = spreadMsg(i, "v")
		db.Insert(ms[i])
	}
	for i, s := range db.shards {
		if len(s.rows) == 0 {
			t.Fatalf("test premise broken: shard %d is empty", i)
		}
	}
	obstruct := runFilePath(path, 1, 1)
	if err := os.Mkdir(obstruct, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err == nil {
		t.Fatal("Seal with an obstructed run file must error")
	}
	if _, err := os.Stat(runFilePath(path, 1, 0)); !os.IsNotExist(err) {
		t.Errorf("shard 0's uncommitted run not discarded (err=%v)", err)
	}
	if _, err := os.Stat(sealMarkerPath(path)); !os.IsNotExist(err) {
		t.Errorf("failed seal left a commit marker (err=%v)", err)
	}
	late := spreadMsg(rows, "late")
	if err := db.Insert(late); err != nil {
		t.Errorf("insert after a pre-commit seal failure: %v", err)
	}
	ms = append(ms, late)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(obstruct); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms)
	if st := db2.Stats(); st.SealedGen != 0 || st.SealedRows != 0 {
		t.Errorf("uncommitted seal attached: %+v", st)
	}
}

// TestCompactRenameFailureRollsForward: once the commit marker is durable,
// a failure later in the compaction — here the removal of leftover segment
// 3, obstructed by a non-empty directory — must poison inserts, since an
// append acknowledged now could be lost by the roll-forward, and leave the
// marker for the next open, which serves every row from the runs even
// though segment 3's file is gone.
func TestCompactRenameFailureRollsForward(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 60
	ms := make([]wire.Message, rows)
	for i := range ms {
		ms[i] = spreadMsg(i, "v")
		db.Insert(ms[i])
	}
	db.Close()

	// Reopen with 2 shards (segments 2 and 3 become leftovers), then make
	// segment 3's removal fail.
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	seg3 := segmentPath(path, 3)
	if err := os.Remove(seg3); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(seg3, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(seg3, "obstruction"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db2.Seal(); err == nil {
		t.Fatal("Seal with an obstructed leftover removal must error")
	}
	if err := db2.Insert(spreadMsg(999, "late")); err == nil {
		t.Error("inserts after an interrupted compaction must be poisoned")
	}
	if gen, _, err := readSealMarker(path); err != nil || gen != 1 {
		t.Fatalf("commit marker must survive for roll-forward: gen=%d err=%v", gen, err)
	}
	_ = db2.Close() // poisoned store; close error is expected noise

	// "Crash" and reopen without the obstruction (copyStoreFiles skips
	// directories): the runs are authoritative, so no row is lost.
	crash := filepath.Join(dir, "after-crash")
	if err := os.Mkdir(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	copyStoreFiles(t, dir, crash)
	db3, err := OpenOptions(filepath.Join(crash, "siren.wal"), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	assertAll(t, db3, ms)
	if st := db3.Stats(); st.SealedGen != 1 || st.SealedRows != rows {
		t.Errorf("roll-forward Stats = %+v", st)
	}
}

// TestOpenRefusesRetiredFormats: a store left with the retired compaction
// marker, or with a pre-segment single-file WAL at its base path, must fail
// to open in both modes — never open as an empty or partial store over that
// data — and a refused open must not create segments beside it.
func TestOpenRefusesRetiredFormats(t *testing.T) {
	for _, format := range []struct {
		name  string
		build func(t *testing.T) string
	}{
		{"compact_marker", func(t *testing.T) string {
			path, _ := buildSealedStore(t, 50, 30)
			for _, f := range []string{path + ".compact-commit", segmentPath(path, 0) + ".compact"} {
				if err := os.WriteFile(f, []byte("shards=2\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return path
		}},
		{"file_at_base_path", func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "siren.wal")
			if err := os.WriteFile(path, []byte("pre-segment records"), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
	} {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readonly=%v", format.name, readOnly), func(t *testing.T) {
				path := format.build(t)
				_, statErr := os.Stat(segmentPath(path, 0))
				segBefore := statErr == nil
				db, err := OpenOptions(path, Options{Shards: 2, ReadOnly: readOnly})
				if err == nil {
					db.Close()
					t.Fatal("open accepted a store in a retired format")
				}
				if _, err := os.Stat(segmentPath(path, 0)); !segBefore && err == nil {
					t.Error("refused open created a segment")
				}
				// A -db glob over the store still names its (refused) base.
				got, err := ResolveSetPaths(path + "*")
				if err != nil || len(got) != 1 || got[0] != path {
					t.Errorf("ResolveSetPaths = %v, %v; want [%s]", got, err, path)
				}
			})
		}
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := spreadMsg(1, "")
	big.Content = make([]byte, maxRecordLen+1)
	if err := db.Insert(big); err == nil {
		t.Fatal("a record replay would treat as a torn tail must be rejected at write time")
	}
	// The store stays fully usable and the segment unpolluted.
	if err := db.Insert(spreadMsg(2, "ok")); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 1 {
		t.Errorf("Count = %d, want 1", db.Count())
	}
}

func TestScanMergesShardsInInsertionOrder(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rows = 200
	for i := 0; i < rows; i++ {
		m := spreadMsg(i, fmt.Sprintf("%d", i))
		if err := db.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	db.Scan(func(m wire.Message) bool {
		if string(m.Content) != fmt.Sprintf("%d", want) {
			t.Fatalf("Scan position %d yielded %q (shard merge out of order)", want, m.Content)
		}
		want++
		return true
	})
	if want != rows {
		t.Errorf("Scan visited %d rows, want %d", want, rows)
	}
}

func TestInsertShardDirectRouting(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.StoreShards() != 4 {
		t.Fatalf("StoreShards = %d", db.StoreShards())
	}
	// Route batches the way matched receiver writers do: shard index =
	// PartitionHash % shards.
	byShard := make([][]wire.Message, 4)
	const rows = 80
	for i := 0; i < rows; i++ {
		m := spreadMsg(i, "direct")
		idx := int(wire.PartitionHash([]byte(m.JobID), []byte(m.Host)) % 4)
		byShard[idx] = append(byShard[idx], m)
	}
	for idx, batch := range byShard {
		if err := db.InsertShard(idx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if db.Count() != rows {
		t.Errorf("Count = %d, want %d", db.Count(), rows)
	}
	if err := db.InsertShard(4, byShard[0]); err == nil {
		t.Error("out-of-range shard index must error")
	}
}
