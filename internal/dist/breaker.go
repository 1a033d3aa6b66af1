package dist

import (
	"sync"
	"time"
)

// breakerState is one node of the per-worker circuit breaker's state
// machine. The breaker replaces the old raw healthy/unhealthy bit:
// instead of an evicted worker being hammered by every health sweep,
// an open breaker skips the worker entirely until its cooldown
// expires, then admits a single half-open trial (a probe or one
// dispatched request); a trial success closes the breaker, a failure
// re-opens it with a doubled cooldown.
type breakerState int

const (
	// brUnknown is the birth state: never probed, not dispatchable,
	// always probeable. The pool probes every worker synchronously at
	// construction and on every membership join, so workers leave this
	// state before their first pick.
	brUnknown breakerState = iota
	brClosed
	brOpen
	brHalfOpen
)

// breaker is the circuit breaker guarding one worker. All methods take
// the current time explicitly so the state machine is a pure function
// of its inputs — tests pass chosen instants, production time.Now.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // first open period; doubles per consecutive trip
	state     breakerState
	fails     int       // consecutive failures while closed
	trips     int       // consecutive opens since the last close
	until     time.Time // open expiry
}

// maxBreakerCooldown caps the doubled cooldown so a long-dead worker
// still gets a trial every few minutes.
const maxBreakerCooldown = 2 * time.Minute

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allowDispatch reports whether a request may be sent to the worker
// now. An expired open breaker transitions to half-open and admits the
// caller as its trial.
func (b *breaker) allowDispatch(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed, brHalfOpen:
		return true
	case brOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = brHalfOpen
		return true
	}
	return false // brUnknown: never probed successfully
}

// allowProbe reports whether a health probe is worth sending now: open
// breakers suppress probing until the cooldown expires (the cooldown,
// not the probe cadence, owns re-admission pacing), everything else
// probes normally. Like allowDispatch, expiry moves open → half-open.
func (b *breaker) allowProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == brOpen {
		if now.Before(b.until) {
			return false
		}
		b.state = brHalfOpen
	}
	return true
}

// success records a healthy probe or a completed dispatch: the breaker
// closes and all failure history clears. Returns true when the state
// changed (for the coordinator's eviction/re-admission log lines).
func (b *breaker) success() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := b.state != brClosed
	b.state = brClosed
	b.fails = 0
	b.trips = 0
	return changed
}

// failure records a failed probe or dispatch. While closed it counts
// consecutive failures against the threshold; reaching it — or failing
// the half-open trial — opens the breaker for an exponentially grown
// cooldown. Returns true when the breaker opened on this call.
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		b.fails++
		if b.fails < b.threshold {
			return false
		}
	case brOpen:
		return false // already open; nothing new to report
	case brHalfOpen, brUnknown:
		// A failed trial (or a worker that was never healthy) opens.
	}
	b.state = brOpen
	b.fails = 0
	d := b.cooldown
	for i := 0; i < b.trips; i++ {
		if d >= maxBreakerCooldown {
			break
		}
		d <<= 1
	}
	if d > maxBreakerCooldown {
		d = maxBreakerCooldown
	}
	b.trips++
	b.until = now.Add(d)
	return true
}

// dispatchable is the side-effect-free read allowDispatch would grant:
// used for counting healthy workers without perturbing trial admission.
func (b *breaker) dispatchable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed, brHalfOpen:
		return true
	case brOpen:
		return !now.Before(b.until)
	}
	return false
}
