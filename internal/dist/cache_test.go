package dist

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"halfprice/internal/experiments"
	"halfprice/internal/trace"
)

// TestFallbackWarnsOncePerSweep: against an all-dead fleet every request
// of a sweep degrades to local execution, but the fallback warning must
// fire once per coordinator, not once per request — a 100-run sweep over
// a dead fleet should not print 100 identical lines.
func TestFallbackWarnsOncePerSweep(t *testing.T) {
	var mu sync.Mutex
	var logbuf strings.Builder
	opts := quietOptions(t)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logbuf, format+"\n", args...)
	}
	coord := NewCoordinator([]string{"127.0.0.1:1"}, opts)
	defer coord.Close()

	for _, b := range trace.BenchmarkNames[:4] {
		req := experiments.Request{Bench: b, Config: testConfig(), Budget: 2000}
		if _, err := coord.Execute(context.Background(), req, nil); err != nil {
			t.Fatalf("Execute with unreachable fleet: %v", err)
		}
	}

	mu.Lock()
	logged := logbuf.String()
	mu.Unlock()
	if got := strings.Count(logged, "falling back to local execution"); got != 1 {
		t.Fatalf("fallback warning fired %d times across 4 requests, want exactly 1; log:\n%s", got, logged)
	}
}
