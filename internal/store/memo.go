package store

import "sync"

// Memo is the in-process singleflight cache in front of the durable
// store: Do computes each key once, and every concurrent or later caller
// of that key shares the first call's value, error or panic. The sweep
// engine's Runner keeps its Stats and window plans in Memos, and a
// sweepd worker keeps its results in one.
//
// A Memo made with keep > 0 holds at most keep completed entries and
// evicts the oldest first; an in-flight entry is never evicted, so
// concurrent callers of a key always share one computation. A nil *Memo
// computes on every call. Methods are safe for concurrent use.
type Memo[K comparable, V any] struct {
	keep int

	mu       sync.Mutex
	calls    map[K]*call[V]
	finished []K // completed keys, oldest first; tracked only when keep > 0
}

// call is one Memo entry: done closes once v, err and panicv are final.
type call[V any] struct {
	done   chan struct{}
	v      V
	err    error
	panicv any
}

// NewMemo returns an empty memo that keeps at most keep completed
// entries; keep <= 0 keeps every entry.
func NewMemo[K comparable, V any](keep int) *Memo[K, V] {
	return &Memo[K, V]{keep: keep, calls: make(map[K]*call[V])}
}

// Do returns key's value, running compute only if no earlier caller of
// key has (or its entry was evicted). joined reports that another
// caller's compute produced the result. If that compute panicked, Do
// panics with the same value on every caller's goroutine.
func (m *Memo[K, V]) Do(key K, compute func() (V, error)) (v V, err error, joined bool) {
	if m == nil {
		v, err = compute()
		return v, err, false
	}
	m.mu.Lock()
	c, joined := m.calls[key]
	if !joined {
		c = &call[V]{done: make(chan struct{})}
		m.calls[key] = c
	}
	m.mu.Unlock()
	if !joined {
		m.run(key, c, compute)
	}
	v, err = c.mustWait()
	return v, err, joined
}

// run computes c and publishes the outcome even if compute panics, so
// callers waiting on c never block forever.
func (m *Memo[K, V]) run(key K, c *call[V], compute func() (V, error)) {
	defer func() {
		c.panicv = recover()
		close(c.done)
		m.completed(key)
	}()
	c.v, c.err = compute()
}

// completed makes key's finished entry evictable and evicts the oldest
// completed entries beyond keep.
func (m *Memo[K, V]) completed(key K) {
	if m.keep <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, key)
	for len(m.finished) > m.keep {
		delete(m.calls, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// Len returns the number of entries held, in flight or completed.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// mustWait waits for c and returns its outcome, re-raising the panic of
// the compute that produced it on this goroutine.
func (c *call[V]) mustWait() (V, error) {
	<-c.done
	if c.panicv != nil {
		panic(c.panicv)
	}
	return c.v, c.err
}
