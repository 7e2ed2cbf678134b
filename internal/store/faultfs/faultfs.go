// Package faultfs is the deterministic storage-fault injection layer
// under the artifact store and the service journal: an FS wrapper that
// fails exact operations — EIO on a write, a short/partial write, a
// failed fsync, ENOSPC, EIO on a read — according to a seeded
// splitmix64 plan, so crash- and IO-chaos tests reproduce byte for
// byte from a single seed.
//
// Faults are addressed by (kind, per-kind operation ordinal): the
// plan entry {Kind: SyncFail, Op: 3} fails the fourth Sync the wrapped
// filesystem ever sees. Per-kind counters (rather than one global op
// counter) keep addresses meaningful — a plan targets "the 4th fsync",
// not "whatever the 17th syscall happens to be" — and every injected
// fault wraps ErrInjected so tests can tell planned failures from real
// environmental ones.
//
// Every kind hits an operation the segment log under the store and the
// journal makes. The log renames nothing, so Rename passes through: a
// kind for it would be a planned fault that never fires.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/detrand"
	"repro/internal/store"
)

// ErrInjected marks every fault this package injects; test with
// errors.Is. The concrete error chain also carries the modelled
// syscall errno (EIO, ENOSPC) so code classifying by errno behaves as
// it would under the real fault.
var ErrInjected = errors.New("faultfs: injected fault")

// Kind classifies an injected storage fault.
type Kind uint8

const (
	// WriteEIO fails one File.Write with EIO after writing nothing.
	WriteEIO Kind = iota
	// ShortWrite writes only the first half of one File.Write's bytes,
	// then fails with EIO — the torn frame an append-only log must
	// leave only at a segment's tail.
	ShortWrite
	// WriteENOSPC fails one File.Write with ENOSPC.
	WriteENOSPC
	// SyncFail fails one File.Sync — the fsyncgate model: the data may
	// or may not be durable, and the caller must treat the file as
	// suspect.
	SyncFail
	// ReadEIO fails one ReadFile or ReadAt with EIO.
	ReadEIO

	numKinds
)

var kindNames = [numKinds]string{
	"write-eio", "short-write", "write-enospc", "sync-fail", "read-eio",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one planned injection: the Op-th operation (0-based) of the
// fault's operation class fails with the fault's kind. The three write
// kinds share one ordinal space (the stream of File.Write calls), so
// {ShortWrite, Op: 5} and {WriteEIO, Op: 5} address the same write.
// Each address fires at most once, so a retried operation succeeds —
// injected faults model transient IO trouble and crash debris, not a
// dead disk.
type Fault = detrand.Fault[Kind]

// Plan is a seeded set of storage faults.
type Plan = detrand.Plan[Kind]

// NewPlan expands seed into n faults, each addressing an ordinal in
// [0, window) of a kind drawn uniformly — a pure function of its
// arguments, so a chaos run is reproducible from (seed, n, window).
func NewPlan(seed uint64, n int, window uint64) *Plan {
	return detrand.NewPlan(seed, n, numKinds, window)
}

// ParsePlan renders a "seed:count:window" flag value into a plan —
// the -store-faults CLI surface.
func ParsePlan(spec string) (*Plan, error) {
	return detrand.ParsePlan("faultfs", spec, numKinds)
}

// The operation classes that draw ordinals: writes (all three write
// kinds share the stream of File.Write calls), syncs, reads (ReadFile
// and ReadAt share one stream).
const (
	classWrite = iota
	classSync
	classRead
	numClasses
)

// FS wraps an inner store.FS and realizes a Plan against it. Safe for
// concurrent use; the per-class ordinals are atomic, so under
// concurrency the set of injected faults is stable even when which
// caller draws each ordinal is not.
type FS struct {
	inner store.FS
	log   func(format string, args ...any)

	mu      sync.Mutex
	pending map[Kind]map[uint64]bool // armed (kind, op) addresses
	ops     [numClasses]atomic.Uint64
	fired   atomic.Uint64
}

// New wraps inner with the plan's faults. A nil inner wraps the real
// filesystem; log (optional) receives one line per injected fault.
func New(inner store.FS, plan *Plan, log func(format string, args ...any)) *FS {
	if inner == nil {
		inner = store.OS()
	}
	f := &FS{inner: inner, log: log, pending: make(map[Kind]map[uint64]bool)}
	if plan != nil {
		for _, flt := range plan.Faults {
			if f.pending[flt.Kind] == nil {
				f.pending[flt.Kind] = make(map[uint64]bool)
			}
			f.pending[flt.Kind][flt.Op] = true
		}
	}
	return f
}

// Fired reports how many planned faults have been injected so far.
func (f *FS) Fired() uint64 { return f.fired.Load() }

// trip advances class's ordinal and reports which of the given kinds
// (if any) is planned for this operation. Each address fires once.
func (f *FS) trip(class int, kinds ...Kind) (Kind, bool) {
	op := f.ops[class].Add(1) - 1
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, kind := range kinds {
		if f.pending[kind][op] {
			delete(f.pending[kind], op)
			f.fired.Add(1)
			if f.log != nil {
				f.log("faultfs: injecting %s@op%d", kind, op)
			}
			return kind, true
		}
	}
	return 0, false
}

func injected(kind Kind, errno syscall.Errno) error {
	return fmt.Errorf("%w: %s: %w", ErrInjected, kind, errno)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *FS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	file, err := f.inner.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FS) Chmod(name string, mode os.FileMode) error { return f.inner.Chmod(name, mode) }

func (f *FS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }

func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, ok := f.trip(classRead, ReadEIO); ok {
		return nil, injected(ReadEIO, syscall.EIO)
	}
	return f.inner.ReadFile(name)
}

func (f *FS) ReadAt(name string, p []byte, off int64) (int, error) {
	if _, ok := f.trip(classRead, ReadEIO); ok {
		return 0, injected(ReadEIO, syscall.EIO)
	}
	return f.inner.ReadAt(name, p, off)
}

func (f *FS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// faultFile interposes on the write-side file operations.
type faultFile struct {
	store.File
	fs *FS
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch kind, ok := f.fs.trip(classWrite, WriteEIO, ShortWrite, WriteENOSPC); {
	case !ok:
		return f.File.Write(p)
	case kind == ShortWrite:
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, injected(ShortWrite, syscall.EIO)
	case kind == WriteENOSPC:
		return 0, injected(WriteENOSPC, syscall.ENOSPC)
	default:
		return 0, injected(WriteEIO, syscall.EIO)
	}
}

func (f *faultFile) Sync() error {
	if _, ok := f.fs.trip(classSync, SyncFail); ok {
		return injected(SyncFail, syscall.EIO)
	}
	return f.File.Sync()
}
