// Package store is a persistent content-addressed artifact store: a
// directory of immutable blobs keyed by a digest of what produced
// them, so expensive derived artifacts (expanded supergate genlibs
// first; compiled-library blobs and memo snapshots fit the same
// interface) survive process restarts and are shared by every process
// pointed at the same directory — a shared-nothing mapd fleet on one
// host warms itself exactly once.
//
// The store trusts nothing it reads back. Every object carries an
// embedded header with the payload's length and SHA-256; a truncated,
// bit-flipped or half-written file fails verification, is quarantined
// (renamed aside, never deleted in place, never returned), and the
// caller transparently regenerates it. Writes go through a temp file
// in the same filesystem, are fsynced, and enter the namespace by
// atomic rename, so a crash can never leave a partially visible
// object. Cross-process duplicate generation is suppressed with
// advisory file locks (single-flight per key), and total disk use is
// bounded by a size-budgeted LRU sweep ordered by object mtime, which
// doubles as the access clock (reads touch the file).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagcover/internal/obs"
)

// Key addresses one artifact: a hex SHA-256 digest of the inputs that
// determine its content. Build one with KeyOf.
type Key string

// KeyOf digests the given parts into a Key. Parts are length-prefixed
// before hashing, so ("ab","c") and ("a","bc") produce distinct keys.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// Options tunes a Store. The zero value is usable.
type Options struct {
	// MaxBytes is the LRU GC budget for the objects tree; when a write
	// pushes total object bytes past it, oldest-accessed objects are
	// evicted until the total fits. <= 0 means 1 GiB.
	MaxBytes int64
	// Trace, when non-nil, records store operations as spans.
	Trace *obs.Trace
}

// quarantineKeep bounds how many quarantined files the GC retains
// (newest first); quarantine exists for postmortems, not as a second
// cache.
const quarantineKeep = 32

// Store is one artifact store rooted at a directory. All methods are
// safe for concurrent use, including by multiple processes sharing
// the directory.
type Store struct {
	root string
	opt  Options

	fmu     sync.Mutex
	flights map[string]*sync.Mutex // in-process single-flight per kind/key

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	evictions   atomic.Uint64
	quarantined atomic.Uint64
	genNanos    atomic.Int64 // time spent generating on misses
	savedNanos  atomic.Int64 // recorded generation time of served hits
}

// Stats is a point-in-time view of the store's counters plus a disk
// walk of the objects tree.
type Stats struct {
	Dir          string  `json:"dir"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Writes       uint64  `json:"writes"`
	WriteErrors  uint64  `json:"write_errors"`
	Evictions    uint64  `json:"evictions"`
	Quarantined  uint64  `json:"quarantined"`
	Objects      int     `json:"objects"`
	Bytes        int64   `json:"bytes"`
	MaxBytes     int64   `json:"max_bytes"`
	GenSeconds   float64 `json:"generation_seconds"`
	SavedSeconds float64 `json:"generation_seconds_saved"`
}

// Entry is one artifact returned by Get or GetOrCreate.
type Entry struct {
	// Data is the verified payload.
	Data []byte
	// Meta is the caller-supplied metadata stored alongside the payload
	// (small strings only; it lives in the object header).
	Meta map[string]string
	// SHA is the payload's SHA-256 (hex) — the artifact identity, equal
	// across every process that generates the same content.
	SHA string
	// GenMillis is the wall time the original generation took, as
	// recorded in the object header; on a hit this is time saved.
	GenMillis float64
	// Hit reports whether the entry came from disk (true) or was
	// generated by this call (false).
	Hit bool
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opt Options) (*Store, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = 1 << 30
	}
	s := &Store{root: dir, opt: opt, flights: make(map[string]*sync.Mutex)}
	for _, sub := range []string{"objects", "tmp", "quarantine", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// header is the first line of every object file, followed by exactly
// Len payload bytes. Everything needed to verify the payload — and to
// detect a file that landed under the wrong name — is embedded.
type header struct {
	V    int               `json:"v"`
	Kind string            `json:"kind"`
	Key  string            `json:"key"`
	SHA  string            `json:"sha256"`
	Len  int64             `json:"len"`
	Gen  float64           `json:"gen_ms"`
	Meta map[string]string `json:"meta,omitempty"`
}

const headerVersion = 1

func (s *Store) objectPath(kind string, key Key) string {
	k := string(key)
	return filepath.Join(s.root, "objects", kind, k[:2], k)
}

func (s *Store) lockPath(kind string, key Key) string {
	return filepath.Join(s.root, "locks", kind+"-"+string(key)+".lock")
}

// Get returns the artifact for kind/key if a verified copy is on
// disk. A corrupt copy is quarantined and reported as a miss.
func (s *Store) Get(kind string, key Key) (Entry, bool) {
	return s.GetIf(kind, key, func(Entry) bool { return true })
}

// GetIf is Get for callers that check an object's content before using
// it: a verified copy that accept rejects is returned as absent and
// counted as a miss, so hits and saved generation time credit only
// objects that were served.
func (s *Store) GetIf(kind string, key Key, accept func(Entry) bool) (Entry, bool) {
	e, ok := s.load(kind, key)
	if !ok || !accept(e) {
		s.misses.Add(1)
		return Entry{}, false
	}
	s.recordHit(e)
	return e, true
}

func (s *Store) recordHit(e Entry) {
	s.hits.Add(1)
	s.savedNanos.Add(int64(e.GenMillis * float64(time.Millisecond)))
}

// load reads and verifies one object without touching the hit/miss
// counters (GetOrCreate consults it several times per logical lookup).
func (s *Store) load(kind string, key Key) (Entry, bool) {
	path := s.objectPath(kind, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false // missing (or unreadable: treat as missing)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		s.quarantine(path)
		return Entry{}, false
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil ||
		h.V != headerVersion || h.Kind != kind || h.Key != string(key) {
		s.quarantine(path)
		return Entry{}, false
	}
	payload := raw[nl+1:]
	if int64(len(payload)) != h.Len {
		s.quarantine(path)
		return Entry{}, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA {
		s.quarantine(path)
		return Entry{}, false
	}
	// Touch for LRU: mtime is the access clock the GC sorts by.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return Entry{Data: payload, Meta: h.Meta, SHA: h.SHA, GenMillis: h.Gen, Hit: true}, true
}

// quarantine moves a failed object aside (never deleted in place:
// the bytes stay available for a postmortem, and the name is free
// for the regenerated object).
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.root, "quarantine",
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		// Lost the race with another process quarantining the same file,
		// or the file vanished; either way it is out of the namespace.
		if !os.IsNotExist(err) {
			_ = os.Remove(path)
		}
	}
	s.quarantined.Add(1)
}

// GetOrCreate returns the artifact for kind/key, invoking gen to
// produce it on a miss. Concurrent callers — goroutines of this
// process and other processes sharing the directory — generate at
// most once: in-process callers serialize on a per-key mutex,
// cross-process callers on an advisory file lock, and both re-check
// the disk after acquiring. A generation that succeeds is returned to
// the caller even if persisting it fails (the store is an
// accelerator, never a point of failure).
func (s *Store) GetOrCreate(kind string, key Key, gen func() (data []byte, meta map[string]string, err error)) (Entry, error) {
	span := s.opt.Trace.Start("store.get").Arg("kind", kind)
	defer span.End()
	if e, ok := s.load(kind, key); ok {
		s.recordHit(e)
		span.Arg("hit", true)
		return e, nil
	}

	// In-process single-flight.
	s.fmu.Lock()
	fl := s.flights[kind+"/"+string(key)]
	if fl == nil {
		fl = &sync.Mutex{}
		s.flights[kind+"/"+string(key)] = fl
	}
	s.fmu.Unlock()
	fl.Lock()
	defer fl.Unlock()
	if e, ok := s.load(kind, key); ok {
		s.recordHit(e)
		span.Arg("hit", true)
		return e, nil
	}

	// Cross-process single-flight: hold the key's advisory lock across
	// generate + publish. A lock failure degrades to (possibly
	// duplicated) generation, never to an error.
	if unlock, err := lockFile(s.lockPath(kind, key)); err == nil {
		defer unlock()
		if e, ok := s.load(kind, key); ok {
			// Another process generated while we waited for the lock: no
			// work was duplicated, which is what hit means.
			s.recordHit(e)
			span.Arg("hit", true)
			return e, nil
		}
	}

	s.misses.Add(1)
	span.Arg("hit", false)
	genSpan := s.opt.Trace.Start("store.generate").Arg("kind", kind)
	t0 := time.Now()
	data, meta, err := gen()
	genDur := time.Since(t0)
	genSpan.End()
	if err != nil {
		return Entry{}, err
	}
	s.genNanos.Add(int64(genDur))
	sum := sha256.Sum256(data)
	e := Entry{
		Data: data, Meta: meta,
		SHA:       hex.EncodeToString(sum[:]),
		GenMillis: float64(genDur) / float64(time.Millisecond),
	}
	if err := s.put(kind, key, &e); err != nil {
		s.writeErrors.Add(1)
	} else {
		s.writes.Add(1)
		s.gc()
	}
	return e, nil
}

// Put publishes an artifact the caller already generated (the result
// cache maps first, then stores — generation does not happen under the
// store's single-flight, so GetOrCreate's gen-callback shape does not
// fit). genMillis records what the generation cost, so later hits
// credit SavedSeconds. A failed write is counted and reported but must
// not fail the caller, which already holds the data.
func (s *Store) Put(kind string, key Key, data []byte, genMillis float64, meta map[string]string) error {
	sum := sha256.Sum256(data)
	e := Entry{Data: data, Meta: meta, SHA: hex.EncodeToString(sum[:]), GenMillis: genMillis}
	if err := s.put(kind, key, &e); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	s.gc()
	return nil
}

// put publishes one generated entry: temp file in the store's own tmp
// dir (same filesystem, so the rename is atomic), fsync, rename.
func (s *Store) put(kind string, key Key, e *Entry) error {
	span := s.opt.Trace.Start("store.put").Arg("kind", kind)
	defer span.End()
	h := header{V: headerVersion, Kind: kind, Key: string(key), SHA: e.SHA,
		Len: int64(len(e.Data)), Gen: e.GenMillis, Meta: e.Meta}
	hdr, err := json.Marshal(h)
	if err != nil {
		return err
	}
	final := s.objectPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), string(key)[:8]+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(hdr, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(e.Data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	// Fsync the parent so the rename itself survives a crash;
	// best-effort (some filesystems refuse directory fsync).
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// object is one on-disk artifact seen by a GC walk.
type object struct {
	path  string
	size  int64
	mtime time.Time
}

// walkObjects lists every object file under the objects tree.
func (s *Store) walkObjects() []object {
	var out []object
	_ = filepath.Walk(filepath.Join(s.root, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info == nil || info.IsDir() {
			return nil
		}
		out = append(out, object{path: path, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	return out
}

// gc enforces the size budget: evict oldest-accessed objects until
// the objects tree fits MaxBytes, trim the quarantine to its cap, and
// sweep abandoned temp files. Concurrent GCs across processes are
// harmless — removal is idempotent and readers hold open fds.
func (s *Store) gc() {
	span := s.opt.Trace.Start("store.gc")
	defer span.End()
	objs := s.walkObjects()
	var total int64
	for _, o := range objs {
		total += o.size
	}
	if total > s.opt.MaxBytes {
		sort.Slice(objs, func(i, j int) bool { return objs[i].mtime.Before(objs[j].mtime) })
		for _, o := range objs {
			if total <= s.opt.MaxBytes {
				break
			}
			if err := os.Remove(o.path); err == nil || os.IsNotExist(err) {
				total -= o.size
				s.evictions.Add(1)
			}
		}
	}

	// Quarantine cap: newest quarantineKeep files survive.
	qdir := filepath.Join(s.root, "quarantine")
	if ents, err := os.ReadDir(qdir); err == nil && len(ents) > quarantineKeep {
		type qf struct {
			name  string
			mtime time.Time
		}
		var qs []qf
		for _, e := range ents {
			if info, err := e.Info(); err == nil && !info.IsDir() {
				qs = append(qs, qf{e.Name(), info.ModTime()})
			}
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i].mtime.After(qs[j].mtime) })
		for _, q := range qs[min(len(qs), quarantineKeep):] {
			_ = os.Remove(filepath.Join(qdir, q.name))
		}
	}

	// Temp files older than an hour belong to crashed writers.
	tdir := filepath.Join(s.root, "tmp")
	if ents, err := os.ReadDir(tdir); err == nil {
		cutoff := time.Now().Add(-time.Hour)
		for _, e := range ents {
			if info, err := e.Info(); err == nil && !info.IsDir() && info.ModTime().Before(cutoff) {
				_ = os.Remove(filepath.Join(tdir, e.Name()))
			}
		}
	}
}

// GC runs one sweep immediately (operators, tests).
func (s *Store) GC() { s.gc() }

// Stats walks the objects tree and snapshots the counters.
func (s *Store) Stats() Stats {
	objs := s.walkObjects()
	var bytes int64
	for _, o := range objs {
		bytes += o.size
	}
	return Stats{
		Dir:          s.root,
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Writes:       s.writes.Load(),
		WriteErrors:  s.writeErrors.Load(),
		Evictions:    s.evictions.Load(),
		Quarantined:  s.quarantined.Load(),
		Objects:      len(objs),
		Bytes:        bytes,
		MaxBytes:     s.opt.MaxBytes,
		GenSeconds:   float64(s.genNanos.Load()) / float64(time.Second),
		SavedSeconds: float64(s.savedNanos.Load()) / float64(time.Second),
	}
}
