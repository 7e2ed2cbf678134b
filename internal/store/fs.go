package store

import (
	"io"
	"os"
)

// File is the handle an FS hands out for writing: the segment log's
// appends and quarantine copies and the atomic writes need exactly
// write, sync, close and the backing name.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the storage seam under the segment log, and so under the store
// and the service journal. Every byte either moves to or from disk goes
// through one of these methods, which is what lets faultfs (internal/store/faultfs)
// inject EIO, short writes, fsync failures, ENOSPC and rename drops at
// exact operation indices without touching a real kernel.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp opens an exclusive temporary file in dir (os.CreateTemp
	// semantics) for the atomic-write protocol.
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend creates path for appending. It fails with an error
	// wrapping fs.ErrExist when path exists, so a file is never
	// appended to by two owners: the segment log's segments and
	// quarantine copies.
	OpenAppend(path string, perm os.FileMode) (File, error)
	Chmod(name string, mode os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// ReadAt reads len(p) bytes of name from byte off (io.ReaderAt
	// semantics: fewer bytes come with an error, io.EOF at the end of
	// the file) — the store's positional read of a frame or a header.
	ReadAt(name string, p []byte, off int64) (int, error)
	ReadDir(name string) ([]os.DirEntry, error)
}

// osFS is the production FS: a thin pass-through to the os package.
type osFS struct{}

// OS returns the real filesystem. Store.Open and journal.Open use it;
// tests and the chaos harness substitute a faultfs wrapper via the
// *FS constructors.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(path string, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Chmod(name string, mode os.FileMode) error { return os.Chmod(name, mode) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
