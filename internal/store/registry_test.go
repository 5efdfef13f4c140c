package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleRecord(id string) CampaignRecord {
	return CampaignRecord{
		ID:        id,
		Kind:      "campaign",
		Status:    "running",
		Request:   []byte(`{"workload":"qsort","structure":"rf"}`),
		Report:    nil,
		Error:     "",
		Submitted: time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC),
		Started:   time.Date(2026, 8, 7, 10, 0, 1, 0, time.UTC),
		Outcomes:  map[int]string{0: "Masked", 7: "SDC", 12: "DUE"},
	}
}

// TestRegistryRoundTrip is the core durability guarantee: the record a
// coordinator persisted is the record its restarted self resumes from,
// bit for bit — including the partial Outcomes checkpoint.
func TestRegistryRoundTrip(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecord("c000001")
	if _, ok := r.Get(want.ID); ok {
		t.Fatal("Get on empty registry reported a record")
	}
	if err := r.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(want.ID)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip not bit-identical:\n got %+v\nwant %+v", got, want)
	}

	// Overwrite updates in place: one file per id, latest state wins.
	want.Status = "done"
	want.Report = []byte(`{"avf":0.25}`)
	want.Finished = time.Date(2026, 8, 7, 10, 5, 0, 0, time.UTC)
	if err := r.Put(want); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Get(want.ID)
	if got.Status != "done" || string(got.Report) != `{"avf":0.25}` {
		t.Fatalf("overwrite lost the update: %+v", got)
	}
	if st := r.Stats(); st.Records != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 1 record / 2 puts", st)
	}
}

// TestRegistryListOrder: List returns submission order (ids are
// zero-padded, so lexicographic id order is submission order per kind).
func TestRegistryListOrder(t *testing.T) {
	r, _ := OpenRegistry(t.TempDir())
	for _, id := range []string{"c000003", "b000001", "c000001"} {
		if err := r.Put(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, rec := range recs {
		ids = append(ids, rec.ID)
	}
	want := []string{"b000001", "c000001", "c000003"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("List order = %v, want %v", ids, want)
	}
}

// TestRegistryCorruptionSkipped: a restart must never be wedged by one
// bad record — corrupt files read as absent in Get and are skipped (and
// counted) by List.
func TestRegistryCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	r, _ := OpenRegistry(dir)
	good := sampleRecord("c000001")
	bad := sampleRecord("c000002")
	if err := r.Put(good); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(bad); err != nil {
		t.Fatal(err)
	}

	badPath := filepath.Join(dir, bad.ID+".campaign")
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bit flip":  append(append([]byte{}, raw[:len(raw)-1]...), raw[len(raw)-1]^1),
		"truncated": raw[:len(raw)/2],
		"bad magic": append([]byte("not-a-campaign\n"), raw...),
		"empty":     {},
	}
	for name, mutated := range cases {
		if err := os.WriteFile(badPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(bad.ID); ok {
			t.Errorf("%s: corrupt record served by Get", name)
		}
		recs, err := r.List()
		if err != nil {
			t.Fatalf("%s: List failed outright: %v", name, err)
		}
		if len(recs) != 1 || recs[0].ID != good.ID {
			t.Errorf("%s: List = %d records, want only the good one", name, len(recs))
		}
	}
	if st := r.Stats(); st.Errors == 0 {
		t.Error("corrupt reads not counted in stats")
	}

	// A fresh Put repairs the slot.
	if err := r.Put(bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(bad.ID); !ok {
		t.Fatal("Get after repair Put missed")
	}
}

// TestRegistryDelete: finished campaigns evicted from memory are also
// removed from disk, and deleting twice is harmless.
func TestRegistryDelete(t *testing.T) {
	r, _ := OpenRegistry(t.TempDir())
	rec := sampleRecord("c000001")
	if err := r.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(rec.ID); ok {
		t.Fatal("deleted record still readable")
	}
	if err := r.Delete(rec.ID); err != nil {
		t.Fatal("second delete errored:", err)
	}
	if st := r.Stats(); st.Records != 0 || st.Deletes != 1 {
		t.Fatalf("stats = %+v, want 0 records / 1 delete", st)
	}
}

// TestRegistryRejectsHostileIDs: ids are file names; anything that could
// traverse outside the registry directory must be rejected outright.
func TestRegistryRejectsHostileIDs(t *testing.T) {
	r, _ := OpenRegistry(t.TempDir())
	for _, id := range []string{"", "../evil", "a/b", "a\\b", "c 1", "c.1"} {
		if err := r.Put(sampleRecord(id)); err == nil {
			t.Errorf("Put accepted hostile id %q", id)
		}
		if _, ok := r.Get(id); ok {
			t.Errorf("Get accepted hostile id %q", id)
		}
		if err := r.Delete(id); err == nil {
			t.Errorf("Delete accepted hostile id %q", id)
		}
	}
}

// TestRegistryQuarantine: a corrupt record is not merely skipped — it is
// moved aside to .corrupt so the damage shows up once in Stats (and on
// disk, for forensics) instead of re-counting as an error on every scan.
func TestRegistryQuarantine(t *testing.T) {
	dir := t.TempDir()
	r, _ := OpenRegistry(dir)
	rec := sampleRecord("c000001")
	if err := r.Put(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rec.ID+".campaign")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)/2] // a torn write: valid prefix, missing tail
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := r.Get(rec.ID); ok {
		t.Fatal("torn record served by Get")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("torn record still at %s after quarantine", path)
	}
	moved, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if !reflect.DeepEqual(moved, torn) {
		t.Error("quarantine altered the corrupt bytes")
	}

	st := r.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Corrupt != 1 {
		t.Errorf("Stats.Corrupt = %d, want 1", st.Corrupt)
	}
	if st.Records != 0 {
		t.Errorf("Stats.Records = %d, want 0 (quarantined files must not count)", st.Records)
	}

	// Subsequent scans see a clean directory: the error counter does not
	// keep climbing for the same already-quarantined file.
	errsAfter := st.Errors
	if recs, err := r.List(); err != nil || len(recs) != 0 {
		t.Fatalf("List after quarantine = %d recs, err %v", len(recs), err)
	}
	if st := r.Stats(); st.Errors != errsAfter {
		t.Errorf("Errors climbed from %d to %d on a re-scan of a quarantined dir", errsAfter, st.Errors)
	}

	// The slot is reusable: a fresh Put repairs it.
	if err := r.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(rec.ID); !ok {
		t.Fatal("Get after repair Put missed")
	}
}

// failRenameFS delegates everything to OSFS except WriteFileAtomic,
// which fails at the rename step — the seam the chaos harness drives;
// this pins the contract it relies on: a failed write surfaces an error
// AND leaves any previous version of the record intact.
type failRenameFS struct {
	OSFS
	fail bool
}

func (f *failRenameFS) WriteFileAtomic(path string, data []byte) error {
	if f.fail {
		return os.ErrPermission
	}
	return f.OSFS.WriteFileAtomic(path, data)
}

// TestRegistryPutFailureLeavesOldRecord: atomicity under write failure —
// a Put whose rename fails reports the error and the reader still sees
// the previous committed version, never a partial file.
func TestRegistryPutFailureLeavesOldRecord(t *testing.T) {
	fsys := &failRenameFS{}
	r, err := OpenRegistryOn(fsys, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord("c000001")
	if err := r.Put(rec); err != nil {
		t.Fatal(err)
	}

	fsys.fail = true
	rec.Status = "done"
	if err := r.Put(rec); err == nil {
		t.Fatal("Put with a failing rename reported success")
	}
	got, ok := r.Get(rec.ID)
	if !ok {
		t.Fatal("previous record lost after a failed Put")
	}
	if got.Status != "running" {
		t.Errorf("reader sees status %q after failed Put, want the old %q", got.Status, "running")
	}
}
