package sirendb

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/obs"
	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
)

// sealedRun is one immutable sorted run attached to a shard: the frozen
// remains of an earlier WAL head, reachable in O(index) without replay.
// gen is the seal generation that produced it; fileShard is the shard index
// baked into its file name, which equals the owning shard's index unless
// the store was reopened with a different shard count.
type sealedRun struct {
	gen       int
	fileShard int
	path      string
	run       *runfmt.Run
}

// row is one stored message plus its store-wide sequence number, the key the
// shard-merge in Scan/ByJob orders by.
type row struct {
	seq uint64
	msg wire.Message
}

// shard owns one partition of the store: its rows, secondary indexes, and
// WAL segment file. All writes to one (JobID, Host) land on one shard, so
// inserts across shards never contend.
type shard struct {
	mu        sync.RWMutex
	rows      []row
	byJob     map[string][]int
	byProcess map[string][]int
	wal       *os.File
	written   int64 // valid bytes appended to the segment (under mu)

	// runs are the shard's sealed tier, oldest generation first. The slice
	// is copy-on-write under mu: Seal and retention swap in a fresh slice,
	// so a snapshot's captured header stays valid forever. sealedRows is the
	// row total across runs, kept alongside so Count stays O(shards).
	runs       []sealedRun
	sealedRows int

	// jobKeys/procKeys cache the sorted key sets of the two indexes so
	// Jobs/ProcessKeys stop re-sorting on every call. A cache entry is an
	// immutable slice stamped with the map size it was built from; the maps
	// only ever gain keys, so size equality means freshness. Readers load
	// and (re)build the caches under the shard's read lock — a racing
	// duplicate rebuild stores an identical value, and the atomic pointer
	// keeps old snapshots of the slice valid forever.
	jobKeys  atomic.Pointer[sortedKeys]
	procKeys atomic.Pointer[sortedKeys]

	// synced is how many segment bytes are known durable (fdatasync
	// confirmed). Only the group-commit path under syncMu advances it, so
	// it grows monotonically; the crash-recovery tests read it to model
	// what survives power loss.
	synced atomic.Int64
	// syncMu serialises fdatasync with Seal's segment truncation and Close,
	// without holding mu across the disk wait — appends proceed while a
	// group commit is in flight. Lock order: syncMu before mu.
	syncMu sync.Mutex
	// dirty is the group-commit doorbell: a buffered token wakes the syncer
	// after the first unsynced append; further appends in the window
	// piggyback on the pending commit.
	dirty chan struct{}

	// fsyncNS / commitBytes are the store's group-commit instruments,
	// shared by every shard (nil-safe no-ops when the store is
	// uninstrumented; see storeMetrics).
	fsyncNS     *obs.Histogram
	commitBytes *obs.Histogram
}

// sortedKeys is an immutable sorted key cache for one secondary index.
type sortedKeys struct {
	keys []string
	n    int // len of the index map when built; maps only grow, so n == len(m) ⇔ fresh
}

// sortedKeysOf returns the sorted keys of index map m through the cache,
// rebuilding it only when the map gained keys since the last build. Call
// with the shard lock held (read suffices).
func sortedKeysOf(cache *atomic.Pointer[sortedKeys], m map[string][]int) []string {
	if c := cache.Load(); c != nil && c.n == len(m) {
		return c.keys
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cache.Store(&sortedKeys{keys: keys, n: len(m)})
	return keys
}

func newShard() *shard {
	return &shard{
		byJob:     make(map[string][]int),
		byProcess: make(map[string][]int),
		dirty:     make(chan struct{}, 1),
	}
}

func (s *shard) appendLocked(m wire.Message, seq uint64) {
	idx := len(s.rows)
	s.rows = append(s.rows, row{seq, m})
	s.byJob[m.JobID] = append(s.byJob[m.JobID], idx)
	pk := m.ProcessKey()
	s.byProcess[pk] = append(s.byProcess[pk], idx)
}

// appendReplay adds a replayed row without index maintenance; the caller
// runs rebuildIndex once after all segments are read.
func (s *shard) appendReplay(m wire.Message, seq uint64) {
	s.rows = append(s.rows, row{seq, m})
}

// rebuildIndex seq-sorts the rows and rebuilds both secondary indexes.
// Replay can deliver one shard's rows from several files (its own segment
// plus leftovers from an older shard count), so file order is not seq order.
func (s *shard) rebuildIndex() {
	sort.SliceStable(s.rows, func(i, j int) bool { return s.rows[i].seq < s.rows[j].seq })
	s.byJob = make(map[string][]int)
	s.byProcess = make(map[string][]int)
	s.jobKeys.Store(nil)
	s.procKeys.Store(nil)
	for idx, r := range s.rows {
		s.byJob[r.msg.JobID] = append(s.byJob[r.msg.JobID], idx)
		pk := r.msg.ProcessKey()
		s.byProcess[pk] = append(s.byProcess[pk], idx)
	}
}

func (s *shard) notifyDirty() {
	select {
	case s.dirty <- struct{}{}:
	default:
	}
}

// fsync makes every byte appended so far durable. The write offset is
// snapshotted under mu, but the fdatasync itself runs with only syncMu held,
// so appends continue while the disk flushes — the essence of group commit.
func (s *shard) fsync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	f, w := s.wal, s.written
	s.mu.Unlock()
	if f == nil || s.synced.Load() >= w {
		return nil
	}
	start := time.Now()
	if err := fdatasync(f); err != nil {
		return err
	}
	s.fsyncNS.Since(start)
	s.commitBytes.Record(w - s.synced.Load())
	s.synced.Store(w)
	return nil
}

// syncLoop is the per-shard group-commit syncer: it sleeps until a write
// rings the doorbell, lets the batch accumulate for SyncInterval, then
// fdatasyncs everything at once. An appended record is therefore durable at
// most SyncInterval (plus one disk flush) after Insert returned.
func (db *DB) syncLoop(s *shard) {
	defer db.syncWG.Done()
	for {
		select {
		case <-db.stopSync:
			return // Close fdatasyncs each shard during shutdown
		case <-s.dirty:
			t := time.NewTimer(db.opts.SyncInterval)
			select {
			case <-t.C:
			case <-db.stopSync:
				t.Stop()
				return
			}
			if err := s.fsync(); err != nil {
				db.recordSyncErr(err)
			}
		}
	}
}
