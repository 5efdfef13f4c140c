package store

// The cache and the registry touch the filesystem through the narrow FS
// surface below instead of calling the os package directly. Production
// code always runs on OSFS; the seam exists so a fault-injection harness
// (internal/chaos) can substitute an implementation that tears writes,
// fails renames, reports ENOSPC, or flips payload bits — the disk-failure
// modes a durable coordinator must survive. The interface is deliberately
// small: five operations cover every way store code touches disk.

import (
	"fmt"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the Store and Registry are written
// against. Implementations must be safe for concurrent use.
type FS interface {
	// ReadFile reads the whole file at path.
	ReadFile(path string) ([]byte, error)
	// WriteFileAtomic durably replaces path with data: temp file in the
	// same directory, write, fsync, atomic rename. On success, readers see
	// either the complete old content or the complete new content, and the
	// new content survives power loss, not just process death.
	WriteFileAtomic(path string, data []byte) error
	// Rename atomically moves oldpath to newpath (same directory).
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]os.DirEntry, error)
}

// OSFS is the production FS: the real filesystem with the durability
// contract implemented in full.
type OSFS struct{}

func (OSFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (OSFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(path string) error                  { return os.Remove(path) }
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// WriteFileAtomic writes data next to path, fsyncs, and renames into
// place. The fsync before the rename is what upgrades the guarantee from
// "survives a crash of this process" to "survives power loss": without
// it, the rename can reach the journal before the data blocks do, and a
// badly timed outage leaves a complete-looking file full of zeros.
func (OSFS) WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
