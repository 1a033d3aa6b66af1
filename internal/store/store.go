// Package store is the durable, crash-safe result tier of the sweep
// engine: a content-addressed on-disk cache of simulation results keyed
// by the canonical request key (experiments.Request.Key) plus a
// simulator-version fingerprint, so a restarted sweep — local or
// fleet-backed — resumes from checkpoint instead of recomputing
// finished simulations, and a code change invalidates stale entries
// instead of silently serving wrong Stats. Memo is the in-process
// singleflight cache in front of it.
//
// Robustness contract:
//
//   - Writes are atomic (staged in tmp/, fsynced, then renamed into
//     objects/), so a SIGKILL or power loss can never leave a partial
//     entry under a final name.
//   - Every entry carries a checksum over its payload. A corrupt,
//     truncated or bit-flipped entry is quarantined (moved aside under
//     quarantine/ for post-mortem) and reported as a miss, never a
//     crash; the recomputed result overwrites it.
//   - Entries record the fingerprint of the simulator build that
//     produced them (VCS revision, module version or a hash of the
//     executable — see Fingerprint). A mismatch is a miss, so results
//     from an older build are never trusted.
//   - Advisory lock files (locks/) make concurrent sweeps from multiple
//     processes safe: GetOrCompute elects one computing process per
//     key, the rest wait and read its result. Locks left by dead
//     processes are detected (pid liveness, then age) and broken.
//
// Store methods never panic and degrade gracefully: an unwritable
// directory or a failed write costs the caching, not the sweep.
//
// Directory layout under the store root:
//
//	objects/<sha256(key)>.json   committed entries
//	tmp/                         staging area for atomic writes
//	locks/<sha256(key)>.lock     advisory compute locks
//	quarantine/<sha256(key)>.json corrupt entries moved aside
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"halfprice/internal/chaos"
	"halfprice/internal/uarch"
)

// entryVersion is the on-disk envelope format version; bump it when the
// envelope layout changes (old entries then read as misses and are
// overwritten).
const entryVersion = 1

// entry is the on-disk envelope around one cached result. Stats keeps
// the payload's original bytes (json.RawMessage), so Checksum verifies
// exactly what was written.
type entry struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	Checksum    string          `json:"checksum"` // sha256 hex of Stats bytes
	Stats       json.RawMessage `json:"stats"`
}

// Options configures a Store. The zero value selects defaults for every
// field.
type Options struct {
	// Fingerprint overrides the simulator-version fingerprint (default:
	// Fingerprint()). Entries written under a different fingerprint
	// read as misses. Tests use this to simulate code changes.
	Fingerprint string
	// Logf receives quarantine and degraded-mode warnings (default:
	// stderr). The store never fails a sweep; it warns and carries on.
	Logf func(format string, args ...any)
	// FS is the filesystem all store I/O goes through (default: the
	// real one). The chaos harness injects disk faults here; the store's
	// degrade-gracefully contract is what turns them into cache misses
	// instead of failed sweeps.
	FS chaos.FS
}

func (o Options) withDefaults() Options {
	if o.Fingerprint == "" {
		o.Fingerprint = Fingerprint()
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if o.FS == nil {
		o.FS = chaos.OS{}
	}
	return o
}

// Store is one result store rooted at a directory. All methods are safe
// for concurrent use, within a process and across processes sharing the
// directory.
type Store struct {
	dir  string
	opts Options

	hits, misses, writes, quarantined atomic.Uint64
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	for _, sub := range []string{"objects", "tmp", "locks", "quarantine"} {
		if err := opts.FS.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", dir, err)
		}
	}
	return &Store{dir: dir, opts: opts}, nil
}

// DefaultDir returns the default result-store location under the user
// cache directory ("" when the platform reports none, which disables
// caching).
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "halfprice", "results")
}

// FromFlags builds the store behind the commands' -cache-dir/-no-cache
// flags: nil (caching off) for -no-cache or an empty directory, and on
// an Open failure it warns on stderr and disables caching rather than
// failing the sweep.
func FromFlags(dir string, noCache bool) *Store {
	if noCache || strings.TrimSpace(dir) == "" {
		return nil
	}
	s, err := Open(dir, Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "store: warning: %v; caching disabled\n", err)
		return nil
	}
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Hits returns the number of Get calls served from disk.
func (s *Store) Hits() uint64 { return s.hits.Load() }

// Misses returns the number of Get calls not served from disk
// (absent, stale-fingerprint or quarantined entries).
func (s *Store) Misses() uint64 { return s.misses.Load() }

// Writes returns the number of entries committed by Put.
func (s *Store) Writes() uint64 { return s.writes.Load() }

// Quarantined returns the number of corrupt entries moved aside.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// hash is the content address of a canonical request key.
func hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", hash(key)+".json")
}

// Get returns the cached result for key, if a valid entry written under
// this store's fingerprint exists. Corrupt entries are quarantined and
// read as misses; Get never fails a caller. A nil store holds nothing.
func (s *Store) Get(key string) (*uarch.Stats, bool) {
	if s == nil {
		return nil, false
	}
	path := s.objectPath(key)
	data, err := s.opts.FS.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantine(path, fmt.Sprintf("undecodable entry: %v", err))
		s.misses.Add(1)
		return nil, false
	}
	if sum := sha256.Sum256(e.Stats); e.Checksum != hex.EncodeToString(sum[:]) {
		s.quarantine(path, "checksum mismatch")
		s.misses.Add(1)
		return nil, false
	}
	// A stale fingerprint or envelope version is not corruption — the
	// entry is intact, just from another build — so it reads as a miss
	// and the recomputed result overwrites it in place.
	if e.Version != entryVersion || e.Fingerprint != s.opts.Fingerprint || e.Key != key {
		s.misses.Add(1)
		return nil, false
	}
	var st uarch.Stats
	if err := json.Unmarshal(e.Stats, &st); err != nil {
		s.quarantine(path, fmt.Sprintf("undecodable stats payload: %v", err))
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return &st, true
}

// Put durably commits the result for key: the entry is staged in tmp/,
// fsynced, and renamed into place, so concurrent readers and a crash at
// any instant see either the old entry or the complete new one.
func (s *Store) Put(key string, st *uarch.Stats) error {
	raw, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("store: marshaling stats: %w", err)
	}
	sum := sha256.Sum256(raw)
	data, err := json.Marshal(entry{
		Version:     entryVersion,
		Fingerprint: s.opts.Fingerprint,
		Key:         key,
		Checksum:    hex.EncodeToString(sum[:]),
		Stats:       raw,
	})
	if err != nil {
		return fmt.Errorf("store: marshaling entry: %w", err)
	}
	f, err := s.opts.FS.CreateTemp(filepath.Join(s.dir, "tmp"), hash(key)+".*")
	if err != nil {
		return fmt.Errorf("store: staging entry: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.opts.FS.Rename(tmp, s.objectPath(key))
	}
	if err != nil {
		s.opts.FS.Remove(tmp)
		return fmt.Errorf("store: committing entry: %w", err)
	}
	// Persist the rename itself; without this a power loss can forget
	// the directory update even though the file data is safe.
	if d, derr := os.Open(filepath.Join(s.dir, "objects")); derr == nil {
		d.Sync()
		d.Close()
	}
	s.writes.Add(1)
	return nil
}

// GetOrCompute is the read-through path of the store: a disk hit
// returns immediately; otherwise an advisory lock file elects one
// computing process per key across every process sharing the store
// directory, and the rest wait for its committed entry. cached reports
// whether the result came from disk (this process did not simulate).
// A failed lock or write degrades to computing uncached — the store
// never fails a sweep. A nil store (caching off) just computes.
func (s *Store) GetOrCompute(key string, compute func() (*uarch.Stats, error)) (st *uarch.Stats, cached bool, err error) {
	if s == nil {
		st, err = compute()
		return st, false, err
	}
	if st, ok := s.Get(key); ok {
		return st, true, nil
	}
	unlock, lerr := s.lock(key)
	if lerr != nil {
		s.opts.Logf("store: warning: locking %s: %v; computing uncached", hash(key)[:12], lerr)
		st, err = compute()
		return st, false, err
	}
	defer unlock()
	// Another process may have committed the entry while we waited for
	// its lock; serve that instead of recomputing.
	if st, ok := s.Get(key); ok {
		return st, true, nil
	}
	st, err = compute()
	if err != nil {
		return nil, false, err
	}
	if perr := s.Put(key, st); perr != nil {
		s.opts.Logf("store: warning: %v; result not cached", perr)
	}
	return st, false, nil
}

// quarantine moves a corrupt entry aside (same name under quarantine/)
// so it can be inspected post-mortem while the sweep recomputes and
// overwrites it. Failures are logged, never raised: two processes may
// race to quarantine the same entry and one rename loses.
func (s *Store) quarantine(path, reason string) {
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	if err := s.opts.FS.Rename(path, dst); err != nil {
		s.opts.FS.Remove(path)
		s.opts.Logf("store: warning: quarantining %s (%s): %v; entry removed", filepath.Base(path), reason, err)
	} else {
		s.opts.Logf("store: warning: quarantined corrupt entry %s (%s); will recompute", filepath.Base(path), reason)
	}
	s.quarantined.Add(1)
}
