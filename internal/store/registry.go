package store

// This file is the durable campaign registry: the on-disk complement of
// the daemon's in-memory campaign map. The artifact cache (store.go)
// already survives restarts; the registry extends the same treatment —
// gob payloads behind a magic/version header and a sha256 checksum,
// written with temp-file + atomic rename — to the campaign records
// themselves, so a coordinator restart resumes queued and running
// campaigns instead of silently forgetting them.
//
// The registry is deliberately pipeline-agnostic: Request and Report are
// opaque JSON blobs (the daemon's own wire forms), and Outcomes carries
// the per-representative classifications a restarted coordinator needs to
// resume an interrupted injection phase without repeating finished work.
// Records are small (the fault lists and traces live in the artifact
// cache, addressed by content), so one file per campaign keeps writes
// atomic and crash-safe without a log format.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// registryVersion invalidates persisted campaign records when their
// serialized layout changes incompatibly; old files read as absent.
const registryVersion = 1

// recordMagic guards against reading non-record files, and its embedded
// version against layout skew between binaries sharing a registry dir.
var recordMagic = []byte(fmt.Sprintf("merlin-campaign/%d\n", registryVersion))

// CampaignRecord is the durable form of one daemon submission. Request
// and Report are opaque JSON (the daemon's wire forms); the registry
// never interprets them. Outcomes maps representative indices (positions
// in the campaign's reduced fault list) to fault-effect class names — the
// checkpointed partial results a restarted coordinator resumes from.
type CampaignRecord struct {
	ID        string
	Kind      string
	Status    string
	Request   []byte
	Report    []byte
	Error     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Outcomes  map[int]string
}

// RegistryStats is a point-in-time snapshot of registry effectiveness,
// folded into the daemon's /statsz.
type RegistryStats struct {
	Puts        uint64 `json:"puts"`        // records written
	Deletes     uint64 `json:"deletes"`     // records removed
	Errors      uint64 `json:"errors"`      // corrupt/unreadable files skipped
	Quarantined uint64 `json:"quarantined"` // corrupt records moved aside to .corrupt

	Records int   `json:"records"` // record files on disk
	Corrupt int   `json:"corrupt"` // quarantined .corrupt files on disk
	Bytes   int64 `json:"bytes"`   // total record bytes on disk
}

// Registry is the durable campaign registry. The zero value is not
// usable; call OpenRegistry. Safe for concurrent use: writes are atomic
// renames, and concurrent writers of the same id last-write-win, which is
// benign because only one daemon process owns a record at a time.
type Registry struct {
	dir string
	fs  FS

	puts, deletes, errs, quarantined atomic.Uint64
}

// OpenRegistry creates (if needed) and opens a campaign registry rooted
// at dir on the real filesystem.
func OpenRegistry(dir string) (*Registry, error) {
	return OpenRegistryOn(OSFS{}, dir)
}

// OpenRegistryOn creates (if needed) and opens a campaign registry
// rooted at dir on the given filesystem. Fault-injection harnesses pass
// a chaos FS here; everything else uses OpenRegistry.
func OpenRegistryOn(fsys FS, dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty registry directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Registry{dir: dir, fs: fsys}, nil
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

// recordPath maps a campaign id to its file; ids that could escape the
// registry directory are rejected by the callers via validID.
func (r *Registry) recordPath(id string) string {
	return filepath.Join(r.dir, id+".campaign")
}

// validID accepts the daemon's generated ids (letter prefix + digits) and
// rejects anything that could traverse outside the registry directory.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Put persists one campaign record atomically and durably — the temp
// file is fsynced before the rename, so a checkpoint that reported
// success survives power loss, not just process death — replacing any
// previous version of the same id.
func (r *Registry) Put(rec CampaignRecord) error {
	if !validID(rec.ID) {
		return fmt.Errorf("store: invalid campaign id %q", rec.ID)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&rec); err != nil {
		return fmt.Errorf("store: encoding campaign record: %w", err)
	}
	if err := r.fs.WriteFileAtomic(r.recordPath(rec.ID), seal(recordMagic, body.Bytes())); err != nil {
		return err
	}
	r.puts.Add(1)
	return nil
}

// quarantine moves a record file the registry cannot vouch for aside to
// <name>.corrupt: out of every future scan, but preserved on disk for
// forensics (a torn write after a power cut is evidence, not garbage).
// The move-aside also keeps a persistently bad file from inflating the
// error counter on every List.
func (r *Registry) quarantine(name string) {
	src := filepath.Join(r.dir, name)
	if err := r.fs.Rename(src, src+".corrupt"); err == nil {
		r.quarantined.Add(1)
	}
}

// Get loads one record by id. A missing, corrupt or truncated file reads
// as absent (ok=false), never as an error: a record the registry cannot
// vouch for is a record it does not have. Corrupt files are quarantined
// to .corrupt so the damage is visible in Stats instead of silently
// re-read forever.
func (r *Registry) Get(id string) (CampaignRecord, bool) {
	if !validID(id) {
		return CampaignRecord{}, false
	}
	raw, err := r.fs.ReadFile(r.recordPath(id))
	if err != nil {
		return CampaignRecord{}, false
	}
	rec, err := decodeRecord(raw)
	if err != nil {
		r.errs.Add(1)
		r.quarantine(id + ".campaign")
		return CampaignRecord{}, false
	}
	return rec, true
}

// List returns every readable record, sorted by id (the daemon's ids are
// zero-padded, so id order is submission order per kind). Corrupt files
// are quarantined, counted, and skipped, not returned: a restart must
// never be wedged by one bad record, and a torn checkpoint reads exactly
// like a crash before the checkpoint — absent.
func (r *Registry) List() ([]CampaignRecord, error) {
	entries, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var recs []CampaignRecord
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".campaign") {
			continue
		}
		raw, err := r.fs.ReadFile(filepath.Join(r.dir, name))
		if err != nil {
			r.errs.Add(1)
			continue
		}
		rec, err := decodeRecord(raw)
		if err != nil || rec.ID+".campaign" != name {
			r.errs.Add(1)
			r.quarantine(name)
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

// decodeRecord opens a sealed record file.
func decodeRecord(raw []byte) (rec CampaignRecord, err error) {
	body, err := unseal(recordMagic, raw)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(body)).Decode(&rec)
	}
	return rec, err
}

// Delete removes one record; deleting an absent record is a no-op.
func (r *Registry) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid campaign id %q", id)
	}
	err := r.fs.Remove(r.recordPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	if err == nil {
		r.deletes.Add(1)
	}
	return nil
}

// Stats snapshots the registry counters and walks the directory for
// on-disk totals.
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Puts:        r.puts.Load(),
		Deletes:     r.deletes.Load(),
		Errors:      r.errs.Load(),
		Quarantined: r.quarantined.Load(),
	}
	entries, _ := r.fs.ReadDir(r.dir)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".corrupt"):
			st.Corrupt++
			continue
		case !strings.HasSuffix(e.Name(), ".campaign"):
			continue
		}
		st.Records++
		if info, err := e.Info(); err == nil {
			st.Bytes += info.Size()
		}
	}
	return st
}
