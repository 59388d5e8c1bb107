// Package fsio is the filesystem seam under the durability layer: an
// interface over exactly the operations the checkpoint store and the
// write-ahead journal perform (create, write, sync, rename, ...), with
// the real os-backed implementation as the default and a
// fault-injecting implementation (Fault) for crash-consistency tests.
// Production code never notices the seam; tests use it to fail or tear
// any single disk operation and then "restart" over the directory the
// simulated crash left behind.
package fsio

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable half of an open file: what a journal append or
// a checkpoint temp-file write needs, nothing more.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	Close() error
	// Name returns the path the file was opened under.
	Name() string
}

// FS is the set of filesystem operations the durability layer
// performs. Every mutation the checkpoint store and journal make goes
// through one of these methods, which is what lets a test
// implementation fail or tear any single step of a checkpoint or an
// append and observe what a restart recovers.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// CreateTemp creates a new unique temp file in dir (os.CreateTemp
	// semantics: pattern's '*' is replaced by a random string).
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile opens path with the given flags (O_APPEND journals,
	// read-only replays).
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadDir(path string) ([]fs.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	Stat(path string) (fs.FileInfo, error)
	Glob(pattern string) ([]string, error)
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory, making its latest renames and
	// unlinks durable.
	SyncDir(path string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)      { return os.Stat(path) }
func (osFS) Glob(pattern string) ([]string, error)      { return filepath.Glob(pattern) }
func (osFS) Truncate(path string, size int64) error     { return os.Truncate(path, size) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic writes data to path so that a crash at any point
// leaves either the previous file or the new one, never a torn mix: the
// bytes go to a temp file beside path (tmpPattern, CreateTemp
// semantics), are fsynced and closed, the temp file is renamed over
// path, and the directory is fsynced so the rename itself is durable.
// A failure before the rename removes the temp file (best effort — the
// owner of the directory sweeps strays matching tmpPattern at open).
func WriteFileAtomic(fsys FS, path, tmpPattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	err = writeSyncClose(tmp, data)
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = fsys.Remove(tmp.Name()) //ldplint:ok fsiocheck best-effort cleanup after the reported failure; strays are swept at open
		return err
	}
	return fsys.SyncDir(dir)
}

// writeSyncClose writes, fsyncs and closes f, closing it on every path.
func writeSyncClose(f File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
