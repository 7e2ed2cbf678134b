// Package service is an arlvet fixture standing in for a lock-scoped
// package: the loader's synthetic import path repro/internal/service
// puts it in lockheld's scope.
package service

import (
	"sync"
	"time"

	"repro/internal/service/journal"
	"repro/internal/store"
)

type queue struct {
	mu    sync.Mutex
	items []int
	ch    chan int
}

// Bad: an unbuffered send can block every goroutine behind mu.
func (q *queue) push(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.ch <- v // want `channel send while q\.mu is held`
	q.mu.Unlock()
}

// Good: the blocking send happens after the critical section.
func (q *queue) pushOutside(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.ch <- v
}

// Bad: the deferred unlock keeps mu held across the sleep.
func (q *queue) slowScan() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while q\.mu is held`
	return len(q.items)
}

// Bad: an unbounded wait inside the critical section.
func (q *queue) waitDrain(done chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want `select with no default while q\.mu is held`
	case <-done:
	}
}

// Good: a select with default polls without blocking.
func (q *queue) tryNotify(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v:
	default:
	}
}

// Allowed: the annotation waives the finding on the next line.
func (q *queue) pushChecked(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//arlvet:allow lockheld fixture exercises the allow path
	q.ch <- v
}

// Bad: a journal flush fsyncs; holding mu across it stalls every
// goroutine behind the lock for the duration of a disk flush.
func (q *queue) journalUnderLock(j *journal.Journal) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.Flush() // want `journal I/O Flush while q\.mu is held`
}

// Bad: waiting for a record's fsync under the lock.
func (q *queue) syncUnderLock(j *journal.Journal, pos journal.Pos) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.Sync(pos) // want `journal I/O Sync while q\.mu is held`
}

// Good: Write only buffers, so it orders records under the lock; the
// wait for durability comes after unlocking.
func (q *queue) journalOrdered(j *journal.Journal) error {
	q.mu.Lock()
	pos, err := j.Write(journal.Record{T: journal.TypeEnd})
	q.mu.Unlock()
	if err != nil {
		return err
	}
	return j.Sync(pos)
}

// Bad: waiting for a segment log's fsync under the lock.
func (q *queue) logSyncUnderLock(l *store.Log, pos store.Pos) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return l.Sync(pos) // want `log I/O Sync while q\.mu is held`
}

// Bad: opening and scanning a segment log under the lock.
func (q *queue) logScanUnderLock(dir, path string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, err := store.OpenLog(store.OS(), dir, dir) // want `log I/O OpenLog while q\.mu is held`
	if err != nil {
		return err
	}
	_, err = l.ScanAll(path, func(store.Frame) {}) // want `log I/O ScanAll while q\.mu is held`
	return err
}

// Good: Write only buffers, so frames are ordered under the lock; the
// wait for durability comes after unlocking.
func (q *queue) logOrdered(l *store.Log, rec []byte) error {
	q.mu.Lock()
	pos := l.Write(rec)
	q.items = append(q.items, len(rec))
	q.mu.Unlock()
	return l.Sync(pos)
}

// Bad: a segment append and its fsync under the lock.
func (q *queue) appendUnderLock(f store.File, rec []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, err := f.Write(rec); err != nil { // want `store I/O File\.Write while q\.mu is held`
		return err
	}
	return f.Sync() // want `store I/O File\.Sync while q\.mu is held`
}

// Good: the same I/O after the critical section.
func (q *queue) appendOutside(f store.File, rec []byte) error {
	q.mu.Lock()
	q.items = append(q.items, len(rec))
	q.mu.Unlock()
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return f.Sync()
}
