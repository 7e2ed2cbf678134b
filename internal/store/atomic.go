package store

import (
	"os"
	"path/filepath"
)

// tmpPrefix marks in-flight atomic writes; a crash can leave such a
// file behind, but never in place of the target.
const tmpPrefix = ".tmp-"

// WriteFileAtomic writes data to path so that a reader (or a crash at
// any instant) observes either the old file or the complete new one,
// never a truncated mix: the bytes land in a temporary file in the
// target directory, are synced to stable storage, and are renamed over
// path in one step. Parent directories are created as needed.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteFileAtomicFS(OS(), path, data, perm)
}

// WriteFileAtomicFS is WriteFileAtomic over an explicit FS — the seam
// the fault-injection harness uses to fail the write at any step of
// the temp/sync/rename protocol.
func WriteFileAtomicFS(fs FS, path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := fs.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Chmod(tmp, perm)
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return nil
}
