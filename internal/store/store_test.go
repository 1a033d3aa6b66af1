package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// simStats runs one small real simulation so entries carry every Stats
// field a sweep produces, histogram pointer included.
func simStats(t *testing.T, bench string) *uarch.Stats {
	t.Helper()
	p, ok := trace.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	return uarch.New(uarch.Config4Wide(), trace.NewSynthetic(p, 2000)).Run()
}

// open returns a store in a fresh temp dir with a quiet logger and a
// fixed fingerprint, so tests control invalidation explicitly.
func open(t *testing.T, dir, fingerprint string) *Store {
	t.Helper()
	s, err := Open(dir, Options{
		Fingerprint: fingerprint,
		Logf:        t.Logf,
		LockPoll:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), "fp-a")
	want := simStats(t, "gzip")
	const key = `{"bench":"gzip","budget":2000}`

	if _, ok := s.Get(key); ok {
		t.Fatal("Get on an empty store must miss")
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put must hit")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip changed the stats:\ngot  %+v\nwant %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Writes() != 1 {
		t.Fatalf("counters hits=%d misses=%d writes=%d, want 1/1/1", s.Hits(), s.Misses(), s.Writes())
	}
}

// TestRoundTripBitIdentical pins the resume guarantee at the byte
// level: the JSON rendering of a cached result is identical to the
// original's, so a resumed sweep's figures diff clean against an
// uninterrupted run.
func TestRoundTripBitIdentical(t *testing.T) {
	s := open(t, t.TempDir(), "fp-a")
	orig := simStats(t, "mcf")
	if err := s.Put("k", orig); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	a, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("cached stats not bit-identical:\norig   %s\ncached %s", a, b)
	}
}

// TestFingerprintMismatch proves the invalidation story: entries
// written by one simulator build are invisible to another, and the
// newer build's recompute overwrites them in place.
func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	old := open(t, dir, "fp-old")
	if err := old.Put("k", simStats(t, "gzip")); err != nil {
		t.Fatal(err)
	}

	cur := open(t, dir, "fp-new")
	if _, ok := cur.Get("k"); ok {
		t.Fatal("entry from another fingerprint must read as a miss")
	}
	if cur.Quarantined() != 0 {
		t.Fatal("a stale fingerprint is not corruption; nothing may be quarantined")
	}
	if err := cur.Put("k", simStats(t, "gzip")); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get("k"); !ok {
		t.Fatal("recomputed entry must hit under the new fingerprint")
	}
	// The overwrite invalidated the old build's view in turn.
	if _, ok := old.Get("k"); ok {
		t.Fatal("overwritten entry must miss under the old fingerprint")
	}
}

func TestGetOrComputeComputesOnceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	want := simStats(t, "gzip")
	var mu sync.Mutex
	computes := 0
	compute := func() (*uarch.Stats, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		return want, nil
	}

	// Two Store instances over the same directory stand in for two
	// sweep processes; the advisory lock must elect exactly one
	// computer per key, with every other caller served from its entry.
	a := open(t, dir, "fp")
	b := open(t, dir, "fp")
	var wg sync.WaitGroup
	results := make([]*uarch.Stats, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := a
			if i%2 == 1 {
				s = b
			}
			st, _, err := s.GetOrCompute("k", compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (cross-process singleflight)", computes)
	}
	for i, st := range results {
		if st == nil || st.Cycles != want.Cycles || st.Committed != want.Committed {
			t.Fatalf("result %d diverged: %+v", i, st)
		}
	}
}

func TestGetOrComputeErrorPropagatesAndUnlocks(t *testing.T) {
	s := open(t, t.TempDir(), "fp")
	boom := func() (*uarch.Stats, error) { return nil, os.ErrDeadlineExceeded }
	if _, _, err := s.GetOrCompute("k", boom); err == nil {
		t.Fatal("compute error must propagate")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("a failed compute must not commit an entry")
	}
	// The lock must have been released: a second call computes again
	// immediately instead of waiting for staleness.
	done := make(chan struct{})
	go func() {
		defer close(done)
		st, cached, err := s.GetOrCompute("k", func() (*uarch.Stats, error) {
			return simStats(t, "gzip"), nil
		})
		if err != nil || cached || st == nil {
			t.Errorf("retry after failed compute: st=%v cached=%v err=%v", st, cached, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second GetOrCompute blocked; lock from the failed compute leaked")
	}
}

func TestFromFlags(t *testing.T) {
	if s := FromFlags("", false); s != nil {
		t.Fatal("empty dir must disable caching")
	}
	if s := FromFlags(t.TempDir(), true); s != nil {
		t.Fatal("-no-cache must disable caching")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	s := FromFlags(dir, false)
	if s == nil {
		t.Fatal("FromFlags with a writable dir must return a store")
	}
	if s.opts.Fingerprint == "" {
		t.Fatal("store must carry a non-empty fingerprint")
	}
}

// TestFingerprintStableAndNonEmpty pins the process-level contract: the
// fingerprint is computed once, never empty, and carries a scheme tag.
func TestFingerprintStableAndNonEmpty(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Fatalf("Fingerprint() = %q then %q; want stable non-empty", a, b)
	}
	if !strings.Contains(a, ":") && a != "unknown" {
		t.Fatalf("fingerprint %q missing its scheme tag", a)
	}
}
