package chaos

import (
	"fmt"
	"os"
	"syscall"

	"merlin/internal/store"
)

// FSFaults is the per-write fault distribution of a chaos filesystem.
// At most one fault fires per write, drawn in declaration order.
type FSFaults struct {
	// TornWrite persists only a prefix of the payload and reports
	// success — the power-cut-mid-checkpoint a journal cannot help with
	// once the application skipped its fsync. The registry's read-side
	// checksum must turn this into "record absent", never a wedge.
	TornWrite float64
	// RenameFail fails the write at the rename step, after the data is
	// durable in the temp file. The caller sees an error; the previous
	// version of the record must survive untouched.
	RenameFail float64
	// ENOSPC fails the write with syscall.ENOSPC before any byte lands.
	ENOSPC float64
	// BitFlip persists the full payload with one bit flipped and
	// reports success — at-rest corruption; the read-side checksum must
	// quarantine it.
	BitFlip float64
}

// FS is a chaos store.FS: reads and scans pass through to Inner
// (store.OSFS when nil), writes are perturbed per Faults.
type FS struct {
	Inner  store.FS
	R      *Rand
	Faults FSFaults
	// OnFault, when set, observes every injected fault (kind, path).
	// Must be safe for concurrent use.
	OnFault func(kind, path string)
}

var _ store.FS = (*FS)(nil)

func (f *FS) inner() store.FS {
	if f.Inner != nil {
		return f.Inner
	}
	return store.OSFS{}
}

func (f *FS) note(kind, path string) {
	if f.OnFault != nil {
		f.OnFault(kind, path)
	}
}

func (f *FS) ReadFile(path string) ([]byte, error)      { return f.inner().ReadFile(path) }
func (f *FS) Rename(old, new string) error              { return f.inner().Rename(old, new) }
func (f *FS) Remove(path string) error                  { return f.inner().Remove(path) }
func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) { return f.inner().ReadDir(dir) }

// WriteFileAtomic perturbs the write per the fault distribution; the
// undisturbed path delegates to the inner FS.
func (f *FS) WriteFileAtomic(path string, data []byte) error {
	switch {
	case f.R.Chance(f.Faults.TornWrite):
		f.note("torn-write", path)
		n := 0
		if len(data) > 1 {
			n = 1 + f.R.Intn(len(data)-1)
		}
		// The tear lands on the final path (the rename happened; the
		// data blocks did not) and the caller is told all is well.
		f.inner().WriteFileAtomic(path, data[:n])
		return nil
	case f.R.Chance(f.Faults.RenameFail):
		f.note("rename-fail", path)
		return fmt.Errorf("chaos: injected rename failure on %s", path)
	case f.R.Chance(f.Faults.ENOSPC):
		f.note("enospc", path)
		return fmt.Errorf("chaos: %w", syscall.ENOSPC)
	case f.R.Chance(f.Faults.BitFlip):
		f.note("bit-flip", path)
		flipped := make([]byte, len(data))
		copy(flipped, data)
		if len(flipped) > 0 {
			flipped[f.R.Intn(len(flipped))] ^= 1 << f.R.Intn(8)
		}
		return f.inner().WriteFileAtomic(path, flipped)
	}
	return f.inner().WriteFileAtomic(path, data)
}
