// Package store is the golden-run artifact cache: a content-addressed,
// on-disk repository of everything MeRLiN's Preprocess phase (paper Fig 2)
// derives from one fault-free run — the architectural golden result, the
// committed branch trace, the ACE-like vulnerable intervals, and the
// checkpoint schedule of the injection ladder. The lifetime event logs are
// not kept: nothing on the campaign path reads them, and a golden tracer
// replays the run for whoever does.
//
// The cache exists because Preprocess is the expensive, *reusable* part of
// a campaign: the golden run and its analysis depend only on (workload,
// core configuration, cycle budget, structure), never on the fault list,
// seed, strategy, or grouping knobs. A service answering "re-run RF with a
// different fault budget" therefore skips the golden run entirely on every
// campaign after the first — the amortization the paper's speedup argument
// is built on, extended across process lifetimes.
//
// Artifacts are addressed by the SHA-256 of the canonical encoding of
// their Key, one file per artifact, written atomically (temp file, fsync,
// rename) as magic ‖ sha256(body) ‖ body. The body is a small gob header
// followed by the intervals and branch trace packed as varint deltas
// (codec.go): a hit must cost less than recomputing the golden run, and a
// gob encoding of the bulk arrays cost as much to write, and again as much
// to read, as the run itself. A corrupt, truncated, or version-skewed file is treated
// as a miss and rewritten, never returned. The Store is safe for
// concurrent use by any number of goroutines and processes sharing the
// directory.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
)

// formatVersion invalidates all cached artifacts when the serialized
// layout (or anything that feeds it: trace semantics, interval
// derivation, simulator timing) changes incompatibly. Version 2
// introduced multi-structure artifacts (one golden run carrying the
// lifetime traces of every structure a batch campaign targets); version 3
// stamps write events with the producing µop's (RIP, UPC) for the
// guestflow static cross-check and pre-pruner; version 4 replaces the
// all-gob body with a gob header and hand-packed arrays (codec.go);
// version 5 drops the event logs. Older files read as a clean miss and are
// recomputed.
const formatVersion = 5

// Key identifies one golden-run artifact: everything the fault-free run
// depends on. Fault list size, sampling seed, injection strategy and
// grouping options are deliberately absent — campaigns differing only in
// those share the artifact.
type Key struct {
	// Workload is the registered benchmark name.
	Workload string
	// CPU is the full core configuration; any field change (register
	// count, cache geometry, predictor sizing …) changes the golden run.
	CPU cpu.Config
	// Budget is the golden-run cycle budget (Runner.GoldenBudget).
	Budget uint64
	// Structures are the traced injection targets; the intervals are
	// per-structure, and a batch campaign's single golden run carries all
	// of them. The set is canonicalized (sorted,
	// deduplicated) by NewKey and again inside ID, so request order never
	// splits the cache.
	Structures []lifetime.StructureID
}

// NewKey builds the canonical key for a golden run tracing the given
// structures: the structure set is sorted and deduplicated so campaigns
// requesting the same set in any order share one artifact.
func NewKey(workload string, cpu cpu.Config, budget uint64, structures ...lifetime.StructureID) Key {
	return Key{Workload: workload, CPU: cpu, Budget: budget,
		Structures: canonicalStructures(structures)}
}

// canonicalStructures returns the sorted, deduplicated copy of a
// structure list: the canonical set form used by artifact keys. Invalid
// ids (>= NumStructures) are dropped uniformly — they can never name a
// traced structure, so keeping any of them would only mint unreachable
// cache keys.
func canonicalStructures(structures []lifetime.StructureID) []lifetime.StructureID {
	out := make([]lifetime.StructureID, 0, len(structures))
	seen := [lifetime.NumStructures]bool{}
	for _, s := range structures {
		if s < lifetime.NumStructures && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ID returns the content address of the key: the hex SHA-256 of its
// canonical JSON encoding. JSON struct encoding is deterministic (fields
// in declaration order), so equal keys always map to equal IDs; the
// structure set is re-canonicalized here so hand-built keys address the
// same artifact as NewKey-built ones.
func (k Key) ID() string {
	k.Structures = canonicalStructures(k.Structures)
	b, err := json.Marshal(k)
	if err != nil { // Key is a plain value type; this cannot fail
		panic(fmt.Sprintf("store: encoding key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StructureTrace is the per-structure slice of an artifact: the derived
// vulnerable intervals of one structure and its geometry.
type StructureTrace struct {
	// Structure names the traced injection target.
	Structure lifetime.StructureID

	// Entries and EntryBytes size the structure (needed to regenerate
	// the statistical fault list and the extrapolation denominators
	// without instantiating a core).
	Entries    int
	EntryBytes int

	// Events is not stored: Put never writes it and Get always returns it
	// nil. The event log comes from the golden tracer's replay
	// (lifetime.Tracer.Log). The field stays only for the benchmark
	// harness, which still sets it, and goes with its refresh (ROADMAP
	// item 8).
	Events []lifetime.Event

	// Intervals are the derived ACE-like vulnerable intervals, stored so
	// a cache hit skips even the analysis rebuild.
	Intervals []lifetime.Interval
}

// Artifact is one cached Preprocess product set: the fault-free golden
// run plus one StructureTrace per traced structure (a single-structure
// campaign stores one; a batch stores all of its targets, which is the
// whole point — one golden run, every structure's trace). All fields are
// plain values so the round trip is exact; Runner state and machine
// snapshots are deliberately excluded (cores are rebuilt deterministically
// from the workload program, which is cheap — it is the golden *run* that
// is expensive).
type Artifact struct {
	// Workload echoes the key for human inspection of cache directories;
	// Get verifies it (and the structure set) matches the requested key.
	Workload string

	// Structures carries one trace per structure of the golden run, in
	// canonical (ascending StructureID) order.
	Structures []StructureTrace

	// Golden is the architectural outcome of the fault-free run: the
	// classification reference of every injection.
	Golden cpu.RunResult

	// Branches is the committed branch trace (the Relyzer
	// control-equivalence comparison input).
	Branches []lifetime.BranchRec

	// CheckpointCycles is the snapshot schedule of the injection ladder
	// (cycles at which the forked strategy freezes golden
	// state). Machine snapshots themselves are not serializable; the
	// schedule lets a warm process rebuild them in one deterministic pass
	// and lets operators see where a campaign's sync points sit.
	CheckpointCycles []uint64
}

// Trace returns the artifact's trace for structure s.
func (a *Artifact) Trace(s lifetime.StructureID) (*StructureTrace, bool) {
	for i := range a.Structures {
		if a.Structures[i].Structure == s {
			return &a.Structures[i], true
		}
	}
	return nil, false
}

// Analysis rehydrates the ACE-like analysis of structure s from its
// cached intervals; ok is false when the artifact does not trace s.
func (a *Artifact) Analysis(s lifetime.StructureID) (*lifetime.Analysis, bool) {
	t, ok := a.Trace(s)
	if !ok {
		return nil, false
	}
	return lifetime.Rehydrate(t.Structure, t.Entries, t.EntryBytes, a.Golden.Cycles, t.Intervals), true
}

// structureSet returns the artifact's traced structures in canonical form
// (Get compares it against the key's set).
func (a *Artifact) structureSet() []lifetime.StructureID {
	ss := make([]lifetime.StructureID, len(a.Structures))
	for i := range a.Structures {
		ss[i] = a.Structures[i].Structure
	}
	return canonicalStructures(ss)
}

// Stats is a point-in-time snapshot of cache effectiveness, served by the
// daemon's /statsz endpoint.
type Stats struct {
	Hits   uint64 `json:"hits"`   // Get found a valid artifact
	Misses uint64 `json:"misses"` // Get found nothing usable
	Puts   uint64 `json:"puts"`   // artifacts written
	Errors uint64 `json:"errors"` // corrupt/unreadable files encountered (each also counts as a miss)

	Entries int   `json:"entries"` // artifact files on disk
	Bytes   int64 `json:"bytes"`   // total artifact bytes on disk
}

// Store is the on-disk cache. The zero value is not usable; call Open.
type Store struct {
	dir string

	hits, misses, puts, errs atomic.Uint64
}

// Open creates (if needed) and opens a cache rooted at dir on the real
// filesystem.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.ID()+".artifact")
}

// fileMagic guards against reading non-artifact files; the version after
// it guards against layout skew between binaries sharing a cache dir.
var fileMagic = []byte(fmt.Sprintf("merlin-artifact/%d\n", formatVersion))

// Get loads the artifact for k. A missing, corrupt, truncated or
// key-mismatched file is a miss (ok=false), never an error: the caller's
// recovery — recompute and Put — is identical in every case.
func (s *Store) Get(k Key) (*Artifact, bool) {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, err := unseal(fileMagic, raw)
	var a *Artifact
	if err == nil {
		a, err = decodeArtifact(body)
	}
	if err != nil || !artifactMatches(a, k) {
		s.errs.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return a, true
}

// artifactMatches verifies the artifact's embedded echo against the key it
// was filed under: same workload, same canonical structure set.
func artifactMatches(a *Artifact, k Key) bool {
	if a.Workload != k.Workload {
		return false
	}
	want := canonicalStructures(k.Structures)
	got := a.structureSet()
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Put writes the artifact for k atomically and durably (temp file,
// fsync, rename): concurrent writers of the same key race benignly (both
// payloads are bit-identical by determinism) and readers never observe a
// partial file.
func (s *Store) Put(k Key, a *Artifact) error {
	body, err := encodeArtifact(a)
	if err != nil {
		return fmt.Errorf("store: encoding artifact: %w", err)
	}
	if err := (OSFS{}).WriteFileAtomic(s.path(k), seal(fileMagic, body)); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// Stats snapshots the cache counters and walks the directory for on-disk
// totals.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
		Errors: s.errs.Load(),
	}
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".artifact") {
			continue
		}
		st.Entries++
		if info, err := e.Info(); err == nil {
			st.Bytes += info.Size()
		}
	}
	return st
}

// seal renders magic ‖ sha256(body) ‖ body: the one file layout of the
// artifact cache and the campaign registry, each under its own magic.
func seal(magic, body []byte) []byte {
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(magic)+len(sum)+len(body))
	out = append(out, magic...)
	out = append(out, sum[:]...)
	return append(out, body...)
}

// unseal verifies magic and checksum and returns the body.
func unseal(magic, raw []byte) ([]byte, error) {
	if !bytes.HasPrefix(raw, magic) {
		return nil, errors.New("bad magic or version")
	}
	raw = raw[len(magic):]
	if len(raw) < sha256.Size {
		return nil, errors.New("truncated")
	}
	want, body := raw[:sha256.Size], raw[sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], want) {
		return nil, errors.New("checksum mismatch")
	}
	return body, nil
}
