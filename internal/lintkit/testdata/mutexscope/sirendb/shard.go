// Fixture: mutexscope enforces the group-commit discipline — index work
// and page-cache appends may ride under the shard mutex, blocking work may
// not — and encodes the sanctioned escapes (syncMu, goroutines, unlock
// before flush).
package sirendb

import (
	"os"
	"sync"
	"time"
)

func fdatasync(f *os.File) error { return f.Sync() }

type shard struct {
	mu     sync.Mutex
	syncMu sync.Mutex
	f      *os.File
	rows   int
}

func (s *shard) badFsync() {
	s.mu.Lock()
	_ = fdatasync(s.f) // want "fdatasync while s.mu is held"
	s.mu.Unlock()
}

func (s *shard) badDeferredUnlock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want "Sync .durability flush. while s.mu is held"
}

func (s *shard) badSleep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
}

func (s *shard) badChannel(ch chan int) {
	s.mu.Lock()
	ch <- s.rows // want "channel send while s.mu is held"
	<-ch         // want "channel receive while s.mu is held"
	s.mu.Unlock()
}

func (s *shard) badSelect(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while s.mu is held"
	case <-ch:
	}
}

func (s *shard) badWait(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want "wg.Wait while s.mu is held"
}

// The group-commit pattern itself: mutate under mu, release, then flush.
func (s *shard) goodUnlockThenFlush() error {
	s.mu.Lock()
	s.rows++
	s.mu.Unlock()
	return fdatasync(s.f) // ok: mutex released
}

// syncMu exists to serialize the flush outside mu; holding it during
// fdatasync is the design, not a violation.
func (s *shard) goodSyncMu() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return fdatasync(s.f) // ok: syncMu is the flush-serialization lock
}

// A goroutine does not inherit the launcher's locks.
func (s *shard) goodGoroutine(done chan struct{}) {
	s.mu.Lock()
	go func() {
		_ = fdatasync(s.f) // ok: runs outside the launcher's critical section
		close(done)
	}()
	s.mu.Unlock()
}

// Branches that unlock on every path fall through unheld.
func (s *shard) goodBranchUnlock(fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return nil
	}
	s.rows++
	s.mu.Unlock()
	return fdatasync(s.f) // ok: both paths released mu
}

// Non-blocking work under the mutex is the fast path and stays silent.
func (s *shard) goodFastPath(buf []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows++
	return s.f.Write(buf) // ok: page-cache append is the group-commit design
}

type store struct {
	shards []*shard
	dir    *os.File
}

// The freeze-the-world pattern: locks taken in a loop with deferred
// unlocks are still held after the loop — blocking work there is flagged
// (and the real Seal path documents itself with //lint:ignore).
func (st *store) badLockAllThenFsync() error {
	for _, s := range st.shards {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return fdatasync(st.dir) // want "fdatasync while s.mu is held"
}

// An unlock-and-return guard arm does not fall through: the mutex is still
// held on the straight-line path and releasing it there is clean.
func (st *store) goodGuardedUnlock(s *shard) error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil
	}
	s.rows++
	s.mu.Unlock()
	return fdatasync(s.f) // ok: every live path released mu
}

// Select with a default never blocks; the dirty-channel nudge pattern.
func (s *shard) goodSelectDefault(dirty chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows++
	select {
	case dirty <- struct{}{}:
	default:
	}
}
