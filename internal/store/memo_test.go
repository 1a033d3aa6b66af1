package store

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"halfprice/internal/uarch"
)

// outcome is one Do call's result, with the panic it raised, if any.
type outcome struct {
	v      int
	err    error
	joined bool
	panicv any
}

func doCatching(m *Memo[string, int], key string, compute func() (int, error)) (o outcome) {
	defer func() { o.panicv = recover() }()
	o.v, o.err, o.joined = m.Do(key, compute)
	return o
}

// TestMemoSingleflight: eight concurrent callers of one key run its
// compute once; the other seven join and get the same value.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[string, int](0)
	var computes atomic.Int32
	release := make(chan struct{})
	compute := func() (int, error) {
		computes.Add(1)
		<-release
		return 42, nil
	}
	outs := make([]outcome, 8)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = doCatching(m, "k", compute)
		}(i)
	}
	for computes.Load() == 0 {
		runtime.Gosched() // hold the compute until one caller is in it
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for one key, want 1", n)
	}
	joined := 0
	for i, o := range outs {
		if o.v != 42 || o.err != nil || o.panicv != nil {
			t.Fatalf("caller %d got %+v, want 42", i, o)
		}
		if o.joined {
			joined++
		}
	}
	if joined != 7 {
		t.Fatalf("%d callers joined, want 7", joined)
	}
}

// TestMemoFailureReachesEveryCaller: the first call's error, or its
// panic, reaches that caller, the callers waiting on it and callers that
// come after it, and the compute runs once.
func TestMemoFailureReachesEveryCaller(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail func() (int, error)
		ok   func(o outcome) bool
	}{
		{"error", func() (int, error) { return 0, errBoom },
			func(o outcome) bool { return errors.Is(o.err, errBoom) && o.panicv == nil }},
		{"panic", func() (int, error) { panic("boom") },
			func(o outcome) bool { return o.panicv == "boom" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemo[string, int](0)
			var computes atomic.Int32
			release := make(chan struct{})
			compute := func() (int, error) {
				computes.Add(1)
				<-release
				return tc.fail()
			}
			first := make(chan outcome)
			go func() { first <- doCatching(m, "k", compute) }()
			for m.Len() == 0 {
				// Wait until the first caller holds the entry, so the
				// callers below find it in flight.
				runtime.Gosched()
			}
			waiting := make([]outcome, 3)
			var wg sync.WaitGroup
			for i := range waiting {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					waiting[i] = doCatching(m, "k", compute)
				}(i)
			}
			close(release)
			wg.Wait()
			outs := append([]outcome{<-first, doCatching(m, "k", compute)}, waiting...)
			for i, o := range outs {
				if !tc.ok(o) {
					t.Fatalf("caller %d got %+v, want the first call's %s", i, o, tc.name)
				}
				// Do reports joined only when it returns, not when it
				// panics.
				if o.panicv == nil && o.joined != (i != 0) {
					t.Fatalf("caller %d joined=%v", i, o.joined)
				}
			}
			if n := computes.Load(); n != 1 {
				t.Fatalf("computed %d times, want 1", n)
			}
		})
	}
}

// TestMemoKeepEvictsOldestCompleted: with keep 2, finishing a third
// entry evicts the oldest completed one, while an entry still in flight
// is never evicted, however many entries complete meanwhile.
func TestMemoKeepEvictsOldestCompleted(t *testing.T) {
	m := NewMemo[string, int](2)
	computes := map[string]int{}
	var mu sync.Mutex
	value := func(key string, v int) func() (int, error) {
		return func() (int, error) {
			mu.Lock()
			computes[key]++
			mu.Unlock()
			return v, nil
		}
	}

	release := make(chan struct{})
	slow := make(chan outcome)
	go func() {
		slow <- doCatching(m, "slow", func() (int, error) {
			<-release
			return value("slow", 9)()
		})
	}()
	for m.Len() == 0 {
		runtime.Gosched() // wait until "slow" is in flight
	}
	for i, k := range []string{"a", "b", "c"} {
		m.Do(k, value(k, i))
	}
	if n := m.Len(); n != 3 {
		t.Fatalf("Len %d after three completed entries and one in flight with keep 2, want 3", n)
	}
	joiner := make(chan outcome)
	go func() { joiner <- doCatching(m, "slow", value("slow", -1)) }()
	close(release)
	if o := <-joiner; o.v != 9 || !o.joined {
		t.Fatalf("in-flight entry was evicted: a later caller got %+v", o)
	}
	if o := <-slow; o.v != 9 || o.joined {
		t.Fatalf("first caller of slow got %+v", o)
	}
	// Completed in the order a, b, c, slow: a went when c finished and
	// b when slow did, so c and slow stay and a computes again.
	for _, k := range []string{"c", "slow"} {
		if _, _, joined := m.Do(k, value(k, -1)); !joined {
			t.Fatalf("%s was evicted, but it is among the 2 newest completed entries", k)
		}
	}
	if _, _, joined := m.Do("a", value("a", 0)); joined {
		t.Fatal("a, the oldest completed entry, was not evicted")
	}
	want := map[string]int{"slow": 1, "a": 2, "b": 1, "c": 1}
	mu.Lock()
	defer mu.Unlock()
	for k, n := range want {
		if computes[k] != n {
			t.Fatalf("computes %v, want %v", computes, want)
		}
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("Len %d with nothing in flight, want keep 2", n)
	}
}

// TestMemoNilComputes: a nil *Memo and a nil *Store (caching off)
// compute on every call and never report a join or a cache hit.
func TestMemoNilComputes(t *testing.T) {
	var m *Memo[string, int]
	calls := 0
	for i := 1; i <= 2; i++ {
		v, err, joined := m.Do("k", func() (int, error) { calls++; return calls, nil })
		if v != i || err != nil || joined {
			t.Fatalf("nil memo call %d = %d, %v, joined=%v; want a fresh compute", i, v, err, joined)
		}
	}

	var s *Store
	if st, ok := s.Get("k"); ok || st != nil {
		t.Fatal("a nil store must read as a miss")
	}
	want := &uarch.Stats{Committed: 7}
	for i := 0; i < 2; i++ {
		st, cached, err := s.GetOrCompute("k", func() (*uarch.Stats, error) { return want, nil })
		if st != want || cached || err != nil {
			t.Fatalf("nil store GetOrCompute = %p, %v, %v; want the computed Stats uncached", st, cached, err)
		}
	}
	errBoom := errors.New("boom")
	if _, _, err := s.GetOrCompute("k", func() (*uarch.Stats, error) { return nil, errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("nil store GetOrCompute error = %v, want the compute's", err)
	}
}
