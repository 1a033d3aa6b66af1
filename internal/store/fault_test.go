package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"halfprice/internal/uarch"
)

// corruptFile applies mutate to the entry's bytes on disk, standing in
// for a torn write, a bad disk or a partial copy.
func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantined lists the quarantine directory.
func quarantined(t *testing.T, s *Store) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(s.dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestBitFlipQuarantined flips one payload byte: the checksum must
// catch it, the entry must move to quarantine/ (not crash, not serve
// wrong Stats), and a recompute must restore service.
func TestBitFlipQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	want := simStats(t, "gzip")
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("k")
	corruptFile(t, path, func(b []byte) []byte {
		// Flip a bit inside the stats payload, past the envelope prefix.
		b[len(b)/2] ^= 0x01
		return b
	})

	if st, ok := s.Get("k"); ok {
		t.Fatalf("bit-flipped entry served as a hit: %+v", st)
	}
	if s.Quarantined() != 1 || len(quarantined(t, s)) != 1 {
		t.Fatalf("corrupt entry not quarantined (counter=%d, files=%v)", s.Quarantined(), quarantined(t, s))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry must be moved out of objects/")
	}
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("recomputed entry must serve again")
	}
}

// TestTruncatedEntryQuarantined cuts an entry mid-file — the shape a
// crash without atomic rename would leave — and requires a quarantined
// miss.
func TestTruncatedEntryQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	if err := s.Put("k", simStats(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.objectPath("k"), func(b []byte) []byte { return b[:len(b)/3] })
	if _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
}

// TestEmptyEntryQuarantined covers the zero-length file a crashed
// non-atomic writer leaves behind.
func TestEmptyEntryQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	if err := os.WriteFile(s.objectPath("k"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty entry served as a hit")
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
}

// TestChecksumFieldTampered flips the recorded checksum instead of the
// payload; the entry must still quarantine, not be trusted.
func TestChecksumFieldTampered(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	if err := s.Put("k", simStats(t, "gzip")); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.objectPath("k"), func(b []byte) []byte {
		var e entry
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		e.Checksum = "deadbeef" + e.Checksum[8:]
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry with tampered checksum served as a hit")
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
}

// TestKeyMismatchIsMiss plants an intact entry under the wrong key's
// content address (a mis-copied cache directory); it must read as a
// miss, not as the other key's result.
func TestKeyMismatchIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	if err := s.Put("key-a", simStats(t, "gzip")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.objectPath("key-a"), s.objectPath("key-b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-b"); ok {
		t.Fatal("entry recorded for key-a served for key-b")
	}
}

// TestTornTempFilesHarmless litters tmp/ with partial staging files —
// what a SIGKILL mid-Put leaves — and requires reads and writes to
// carry on untouched.
func TestTornTempFilesHarmless(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	for i, junk := range []string{"", "{", `{"version":1,"stats":`} {
		path := filepath.Join(s.dir, "tmp", hash("k")+".torn"+string(rune('a'+i)))
		if err := os.WriteFile(path, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("staging junk must never be visible as an entry")
	}
	if err := s.Put("k", simStats(t, "gzip")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("Put must succeed despite torn temp files")
	}
	if s.Quarantined() != 0 {
		t.Fatal("tmp/ junk is not an entry; nothing may be quarantined")
	}
}

// TestDeadHolderLockBroken plants a lock owned by a provably dead
// same-host pid: GetOrCompute must break it immediately (the age
// backstop, lockStale, lies far beyond the test timeout, which proves
// the pid path).
func TestDeadHolderLockBroken(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	host, _ := os.Hostname()
	deadPid := spawnDeadPid(t)
	body, _ := json.Marshal(lockInfo{PID: deadPid, Host: host})
	if err := os.WriteFile(s.lockPath("k"), body, 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, cached, err := s.GetOrCompute("k", func() (*uarch.Stats, error) {
			return simStats(t, "gzip"), nil
		})
		if err != nil || cached {
			t.Errorf("GetOrCompute after breaking a dead lock: cached=%v err=%v", cached, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stale lock with a dead holder was not broken")
	}
	if _, err := os.Stat(s.lockPath("k")); !os.IsNotExist(err) {
		t.Fatal("broken lock must be removed after the compute releases")
	}
}

// TestAgedForeignLockBroken plants an unattributable lock (another
// host) older than lockStale; the age backstop must break it.
func TestAgedForeignLockBroken(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	body, _ := json.Marshal(lockInfo{PID: 1, Host: "some-other-host"})
	path := s.lockPath("k")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * lockStale)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := s.GetOrCompute("k", func() (*uarch.Stats, error) {
			return simStats(t, "gzip"), nil
		}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("aged foreign lock was not broken")
	}
}

// TestLiveHolderLockWaits takes the lock in-process (a live holder) and
// releases it after committing the entry; the waiter must be served the
// cached result, never compute.
func TestLiveHolderLockWaits(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	unlock, err := s.lock("k")
	if err != nil {
		t.Fatal(err)
	}
	want := simStats(t, "gzip")
	go func() {
		time.Sleep(20 * time.Millisecond)
		if err := s.Put("k", want); err != nil {
			t.Error(err)
		}
		unlock()
	}()

	st, cached, err := s.GetOrCompute("k", func() (*uarch.Stats, error) {
		t.Error("waiter computed despite the holder committing a result")
		return simStats(t, "gzip"), nil
	})
	if err != nil || !cached || st == nil || st.Cycles != want.Cycles {
		t.Fatalf("waiter not served from the holder's entry: cached=%v err=%v", cached, err)
	}
}

// spawnDeadPid returns the pid of a child that has already exited and
// been reaped, so pidState must report it dead.
func spawnDeadPid(t *testing.T) int {
	t.Helper()
	proc, err := os.StartProcess("/bin/true", []string{"true"}, &os.ProcAttr{})
	if err != nil {
		t.Skipf("cannot spawn helper process: %v", err)
	}
	state, err := proc.Wait()
	if err != nil || !state.Exited() {
		t.Fatalf("helper did not exit cleanly: %v", err)
	}
	return proc.Pid
}
