package experiments

import (
	"encoding/json"
	"testing"

	"halfprice/internal/store"
)

// cachedTestObserver extends testObserver with the CachedObserver
// method, counting runs reported as served from the durable store.
type cachedTestObserver struct {
	testObserver
	cached int
}

func (o *cachedTestObserver) RunCached(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cached++
}

// openStore opens a result store in a temp dir with a fixed
// fingerprint, failing the test on error.
func openStore(t *testing.T, dir, fingerprint string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{
		Fingerprint: fingerprint,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cachedSweep runs a small fixed sweep against the given store and
// returns the rendered Result JSON plus the runner for counter checks.
func cachedSweep(t *testing.T, st *store.Store, obs Observer) ([]byte, *Runner) {
	t.Helper()
	r := NewRunner(Options{
		Insts:      5000,
		Benchmarks: []string{"gzip", "mcf"},
		Parallel:   4,
		Observer:   obs,
		Store:      st,
	})
	results := []*Result{r.Table2BaseIPC(), r.Figure2Formats()}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return data, r
}

// TestStoreResumeSkipsSimulation is the checkpoint/resume guarantee at
// the Runner level: a second sweep over the same store directory — a
// fresh Runner and a fresh Store, as after a crash and restart — runs
// zero simulations, serves everything from disk, and renders results
// byte-identical to the first sweep.
func TestStoreResumeSkipsSimulation(t *testing.T) {
	dir := t.TempDir()

	first, r1 := cachedSweep(t, openStore(t, dir, "fp-test"), nil)
	if r1.Sims() == 0 {
		t.Fatal("first sweep must simulate")
	}
	if r1.StoreHits() != 0 {
		t.Fatalf("first sweep over an empty store reported %d store hits", r1.StoreHits())
	}

	second, r2 := cachedSweep(t, openStore(t, dir, "fp-test"), nil)
	if got := r2.Sims(); got != 0 {
		t.Fatalf("resumed sweep simulated %d configs, want 0 (all checkpointed)", got)
	}
	if r2.StoreHits() == 0 {
		t.Fatal("resumed sweep reported no store hits")
	}
	if string(first) != string(second) {
		t.Fatalf("resumed sweep differs from original\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
}

// TestStoreHitObserverEvents checks the observer contract for cached
// runs: each store hit is reported queued and then cache-hit, with no
// started/finished pair — so a resumed sweep's progress accounts for
// every skipped run without inflating simulated-instruction throughput.
func TestStoreHitObserverEvents(t *testing.T) {
	dir := t.TempDir()
	_, r1 := cachedSweep(t, openStore(t, dir, "fp-test"), nil)
	simulated := int(r1.Sims())

	obs := &cachedTestObserver{}
	_, r2 := cachedSweep(t, openStore(t, dir, "fp-test"), obs)
	if got, want := obs.cached, int(r2.StoreHits()); got != want {
		t.Fatalf("observer saw %d cached runs, runner counted %d store hits", got, want)
	}
	if obs.cached != simulated {
		t.Fatalf("resume reported %d cache hits, first sweep simulated %d", obs.cached, simulated)
	}
	if obs.queued != obs.cached {
		t.Fatalf("every cached run must still be reported queued: queued=%d cached=%d", obs.queued, obs.cached)
	}
	if obs.started != 0 || obs.finished != 0 {
		t.Fatalf("cached runs must not report start/finish: started=%d finished=%d", obs.started, obs.finished)
	}
}

// TestStoreHitsPlainObserver pins the fallback for observers without
// the CachedObserver extension: store hits degrade to a started +
// finished pair, so plain observers still see every run complete.
func TestStoreHitsPlainObserver(t *testing.T) {
	dir := t.TempDir()
	cachedSweep(t, openStore(t, dir, "fp-test"), nil)

	obs := &testObserver{}
	_, r := cachedSweep(t, openStore(t, dir, "fp-test"), obs)
	if r.StoreHits() == 0 {
		t.Fatal("second sweep must be served from the store")
	}
	if obs.started != obs.queued || obs.finished != obs.queued {
		t.Fatalf("plain observer must see a start/finish pair per cached run: queued=%d started=%d finished=%d",
			obs.queued, obs.started, obs.finished)
	}
}

// TestStoreFingerprintInvalidation simulates a code change: a store
// opened under a different simulator fingerprint must treat every
// existing entry as stale and re-simulate from scratch.
func TestStoreFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	_, r1 := cachedSweep(t, openStore(t, dir, "fp-old"), nil)

	_, r2 := cachedSweep(t, openStore(t, dir, "fp-new"), nil)
	if r2.StoreHits() != 0 {
		t.Fatalf("fingerprint change must invalidate entries, got %d store hits", r2.StoreHits())
	}
	if got, want := r2.Sims(), r1.Sims(); got != want {
		t.Fatalf("invalidated sweep simulated %d configs, want the full %d", got, want)
	}

	// The new build's results replace the stale entries: a third sweep
	// under the new fingerprint is pure cache again.
	_, r3 := cachedSweep(t, openStore(t, dir, "fp-new"), nil)
	if r3.Sims() != 0 || r3.StoreHits() == 0 {
		t.Fatalf("post-invalidation resume: sims=%d storeHits=%d, want 0/+", r3.Sims(), r3.StoreHits())
	}
}
