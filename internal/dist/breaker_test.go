package dist

import (
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	br := newBreaker(2, 10*time.Second)

	// Birth: unknown — probeable but not dispatchable until a probe
	// verdict arrives.
	if br.dispatchable(now) {
		t.Fatal("unknown worker must not be dispatchable before its first probe")
	}
	if !br.allowProbe(now) {
		t.Fatal("unknown worker must be probeable")
	}

	// First success closes it.
	if !br.success() {
		t.Fatal("first success should report a state change")
	}
	if br.success() {
		t.Fatal("repeated success on a closed breaker is not a change")
	}
	if !br.dispatchable(now) || !br.allowDispatch(now) {
		t.Fatal("closed breaker must admit dispatch")
	}

	// One failure under threshold 2: still closed.
	if br.failure(now) {
		t.Fatal("failure under threshold must not open the breaker")
	}
	if !br.dispatchable(now) {
		t.Fatal("breaker should stay closed below the failure threshold")
	}
	// Second consecutive failure opens it.
	if !br.failure(now) {
		t.Fatal("threshold-th failure must open the breaker")
	}
	if br.dispatchable(now) || br.allowDispatch(now) {
		t.Fatal("open breaker must refuse dispatch")
	}
	if br.allowProbe(now) {
		t.Fatal("open breaker must suppress probes during cooldown")
	}

	// Cooldown expiry admits a half-open trial.
	now = now.Add(10*time.Second + time.Millisecond)
	if !br.dispatchable(now) {
		t.Fatal("expired cooldown must admit a half-open trial")
	}
	if !br.allowDispatch(now) {
		t.Fatal("allowDispatch must commit the half-open transition")
	}
	if br.state != brHalfOpen {
		t.Fatalf("state after trial admission = %d, want half-open", br.state)
	}

	// A failed trial re-opens with a doubled cooldown.
	if !br.failure(now) {
		t.Fatal("failed half-open trial must re-open the breaker")
	}
	now = now.Add(10*time.Second + time.Millisecond)
	if br.dispatchable(now) {
		t.Fatal("re-opened breaker must hold for the doubled cooldown")
	}
	now = now.Add(10 * time.Second)
	if !br.allowDispatch(now) {
		t.Fatal("doubled cooldown expired; trial must be admitted")
	}

	// A successful trial closes it and resets the trip history.
	if !br.success() {
		t.Fatal("successful trial should close the breaker")
	}
	if br.state != brClosed {
		t.Fatalf("state after successful trial = %d, want closed", br.state)
	}
	if br.fails != 0 || br.trips != 0 {
		t.Fatalf("failure history after close: fails=%d trips=%d, want clean", br.fails, br.trips)
	}
}

func TestBreakerCooldownCapped(t *testing.T) {
	now := time.Unix(0, 0)
	br := newBreaker(1, time.Minute)
	for i := 0; i < 10; i++ {
		br.failure(now)
		now = now.Add(maxBreakerCooldown + time.Second)
		if !br.allowDispatch(now) {
			t.Fatalf("trip %d: cooldown exceeded the %s cap", i, maxBreakerCooldown)
		}
	}
}
