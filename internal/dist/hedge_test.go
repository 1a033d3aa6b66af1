package dist

import (
	"context"
	"testing"
	"time"

	"halfprice/internal/experiments"
)

// TestSleepBackoffCanceled pins the ctx-aware backoff: a canceled
// context returns immediately with an error instead of sitting out the
// delay — an abandoned sweep must never camp on a retry backoff.
func TestSleepBackoffCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	err := sleepBackoff(ctx, 20) // a 14-29 h delay uncanceled
	if err == nil {
		t.Fatal("sleepBackoff on a canceled context must return an error")
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("sleepBackoff took %s on a canceled context, want immediate return", el)
	}
}

// TestHedgedDispatch races a deliberately slow primary against a fast
// hedge peer: the peer's result wins, the caller never waits out the
// primary, observer events stay exactly-once, and the hedge counters
// record the win.
func TestHedgedDispatch(t *testing.T) {
	// The shard hash decides which worker is the primary for this
	// request; aim it at the slow server so the hedge must fire.
	req := requestFor(t, 0, 2)
	slow := ServerOptions{PreRun: func(experiments.Request) { time.Sleep(3 * time.Second) }}
	_, tsA := startWorkerWith(t, slow)
	_, tsB := startWorkerWith(t, ServerOptions{})
	addrs := []string{tsA.URL, tsB.URL}

	c := NewCoordinator(addrs, Options{
		Hedge:          true,
		Timeout:        30 * time.Second,
		HealthInterval: time.Hour,
	})
	defer c.Close()
	// Warm the p95 estimate to 50ms so the hedge fires at once.
	for i := 0; i < hedgeWarmup; i++ {
		c.lat.observe(50 * time.Millisecond)
	}

	obs := &countingObserver{}
	t0 := time.Now()
	st, err := c.Execute(context.Background(), req, obs)
	if err != nil {
		t.Fatalf("hedged Execute: %v", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("hedged request took %s; the fast peer should have won long before the slow primary", el)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, want) {
		t.Fatal("hedged result differs from local execution")
	}
	launched, won := c.HedgeStats()
	if launched != 1 || won != 1 {
		t.Fatalf("hedge stats launched=%d won=%d, want 1/1", launched, won)
	}
	if s, f := obs.started.Load(), obs.finished.Load(); s != 1 || f != 1 {
		t.Fatalf("observer saw %d starts / %d finishes, want exactly-once", s, f)
	}
}

// TestHedgeWarmupSuppressed pins the adaptive trigger's cold start: with
// fewer than hedgeWarmup completed requests, hedging never fires — a
// cold estimate would double-dispatch the first requests of every
// sweep.
func TestHedgeWarmupSuppressed(t *testing.T) {
	c := NewCoordinator(nil, Options{Hedge: true, HealthInterval: time.Hour})
	defer c.Close()
	for i := 0; i < hedgeWarmup-1; i++ {
		c.lat.observe(10 * time.Millisecond)
	}
	if _, ok := c.hedgeDelay(); ok {
		t.Fatal("hedge delay available before warmup")
	}
	c.lat.observe(10 * time.Millisecond)
	if d, ok := c.hedgeDelay(); !ok || d <= 0 {
		t.Fatalf("hedge delay after warmup = %s, %v; want a positive adaptive delay", d, ok)
	}
}
