package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// lockStale is the age past which a foreign advisory lock is broken
// even when its holder cannot be proven dead — the backstop for
// unparseable locks and holders on other hosts. Same-host locks whose
// holder process has exited are broken immediately, regardless of age.
const lockStale = 10 * time.Minute

// lockPoll is the wait between checks while another process holds a
// key's compute lock.
const lockPoll = 50 * time.Millisecond

// lockInfo is the advisory lock file's body: enough to decide whether
// the holder is still alive (same host) and to attribute the lock in a
// post-mortem.
type lockInfo struct {
	PID  int    `json:"pid"`
	Host string `json:"host,omitempty"`
}

func (s *Store) lockPath(key string) string {
	return filepath.Join(s.dir, "locks", hash(key)+".lock")
}

// lock acquires the advisory compute lock for key, blocking while a
// live holder works on it (its committed entry releases the waiter via
// GetOrCompute's re-check once the lock drops). Locks whose holder
// process has exited — a SIGKILLed sweep — are broken immediately;
// locks that cannot be attributed to a live process are broken after
// lockStale. The returned release removes the lock file.
func (s *Store) lock(key string) (release func(), err error) {
	path := s.lockPath(key)
	for {
		f, err := s.opts.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			host, _ := os.Hostname()
			json.NewEncoder(f).Encode(lockInfo{PID: os.Getpid(), Host: host})
			f.Close()
			return func() { s.opts.FS.Remove(path) }, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		if s.lockIsStale(path) {
			// Best-effort break: whoever wins the next O_EXCL create
			// holds the lock; a failed remove just retries.
			s.opts.FS.Remove(path)
			continue
		}
		time.Sleep(lockPoll)
	}
}

// lockIsStale reports whether the lock at path was abandoned: its
// holder process is provably dead (same host), or the lock is older
// than lockStale and its holder cannot be proven alive. A
// vanished lock file counts as stale so the caller retries the
// exclusive create immediately.
func (s *Store) lockIsStale(path string) bool {
	fi, err := s.opts.FS.Stat(path)
	if err != nil {
		return true
	}
	data, err := s.opts.FS.ReadFile(path)
	var li lockInfo
	parsed := err == nil && json.Unmarshal(data, &li) == nil && li.PID > 0
	if parsed {
		host, _ := os.Hostname()
		if li.Host == host {
			switch pidState(li.PID) {
			case pidDead:
				return true
			case pidAlive:
				// A live same-host holder is never stale: breaking its
				// lock would only duplicate work it is still doing.
				return false
			}
		}
	}
	// Unattributable holder (other host, unparseable or torn lock
	// body): fall back to age.
	return time.Since(fi.ModTime()) > lockStale
}

type pidLiveness int

const (
	pidUnknown pidLiveness = iota
	pidAlive
	pidDead
)

// pidState probes a same-host pid with signal 0. Only a definitive
// ESRCH counts as dead; permission errors mean the process exists, and
// anything else stays unknown so the age backstop decides.
func pidState(pid int) pidLiveness {
	p, err := os.FindProcess(pid)
	if err != nil {
		return pidUnknown
	}
	err = p.Signal(syscall.Signal(0))
	switch {
	case err == nil, errors.Is(err, syscall.EPERM):
		return pidAlive
	case errors.Is(err, syscall.ESRCH), errors.Is(err, os.ErrProcessDone):
		return pidDead
	}
	return pidUnknown
}
