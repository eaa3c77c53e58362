// Package lockorder_bad exercises the lockorder analyzer: an ABBA ordering
// cycle, direct and call-propagated self-deadlocks, and blocking operations
// performed under a lock.
package lockorder_bad

import (
	"sync"
	"time"
)

type shard struct {
	mu   sync.Mutex
	busy int
}

type session struct {
	mu   sync.Mutex
	seen int
}

// lockAB orders shard.mu before session.mu; lockBA orders them the other way
// around — together they form the classic ABBA deadlock.
func lockAB(sh *shard, s *session) {
	sh.mu.Lock()
	s.mu.Lock() // want "lock ordering cycle: shard.mu acquired before session.mu in lockAB, but session.mu is acquired before shard.mu elsewhere"
	s.seen++
	s.mu.Unlock()
	sh.mu.Unlock()
}

func lockBA(sh *shard, s *session) {
	s.mu.Lock()
	sh.mu.Lock() // want "lock ordering cycle: session.mu acquired before shard.mu in lockBA, but shard.mu is acquired before session.mu elsewhere"
	sh.busy++
	sh.mu.Unlock()
	s.mu.Unlock()
}

// relock re-acquires the same identity with the first acquisition pending.
func relock(s *session) {
	s.mu.Lock()
	s.mu.Lock() // want "lock session.mu acquired while already held"
	s.mu.Unlock()
	s.mu.Unlock()
}

func helperLocks(s *session) {
	s.mu.Lock()
	s.seen++
	s.mu.Unlock()
}

// callWhileHeld reaches the same lock through a one-level in-package call.
func callWhileHeld(s *session) {
	s.mu.Lock()
	helperLocks(s) // want "call to helperLocks while holding lock session.mu, which helperLocks re-acquires"
	s.mu.Unlock()
}

// sleepUnderLock stalls every peer contending for session.mu.
func sleepUnderLock(s *session) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "blocking time.Sleep while holding lock session.mu"
	s.mu.Unlock()
}

// writeBatch stands in for the proxy writer's batch write.
func writeBatch(b []byte) error { return nil }

// writeUnderLock puts a socket write inside the session lock: the writer
// must drain its batch under the lock and write it after unlocking.
func writeUnderLock(s *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeBatch(nil) // want "blocking writeBatch while holding lock session.mu"
}

// sendUnderLock blocks on a channel with the lock held.
func sendUnderLock(s *session, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want "blocking channel send while holding lock session.mu"
	s.mu.Unlock()
}

// fetchUnderLock calls an injected origin-fetch callback under the lock.
func fetchUnderLock(s *session, fetch func() error) {
	s.mu.Lock()
	_ = fetch() // want "blocking origin fetch fetch while holding lock session.mu"
	s.mu.Unlock()
}
