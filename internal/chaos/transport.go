package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps base (nil = http.DefaultTransport) with the plan's
// network faults: dropped connections, injected latency, synthesized
// 503s, mid-stream body cuts, and scheduled per-target partitions.
// Faults key on the request's URL host, so the n-th request to a given
// worker sees the same verdict on every run with the same seed.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultyTransport{in: in, base: base}
}

type faultyTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	host := req.URL.Host

	for _, pt := range in.plan.Partitions {
		if pt.Target != host {
			continue
		}
		if el := time.Since(in.start); el >= pt.After && el < pt.After+pt.For {
			in.record(Fault{Seam: "http", Op: "partition", Target: host})
			return nil, fmt.Errorf("chaos: %s partitioned (window %s+%s)", host, pt.After, pt.For)
		}
	}
	if p := in.plan.HTTP.DropProb; p > 0 {
		if n, r := in.next("http", "drop", host); r < p {
			in.record(Fault{Seam: "http", Op: "drop", Target: host, Call: n})
			return nil, fmt.Errorf("chaos: injected connection drop to %s", host)
		}
	}
	if p := in.plan.HTTP.DelayProb; p > 0 {
		if n, r := in.next("http", "delay", host); r < p {
			in.record(Fault{Seam: "http", Op: "delay", Target: host, Call: n})
			// The delay length is itself deterministic: a second roll on
			// the same coordinates scales MaxDelay.
			frac := roll(in.plan.Seed, "delay-len", host, n)
			time.Sleep(time.Duration(frac * float64(in.plan.HTTP.MaxDelay)))
		}
	}
	if p := in.plan.HTTP.Error5xxProb; p > 0 {
		if n, r := in.next("http", "5xx", host); r < p {
			in.record(Fault{Seam: "http", Op: "5xx", Target: host, Call: n})
			return &http.Response{
				StatusCode: http.StatusServiceUnavailable,
				Status:     "503 Service Unavailable (chaos)",
				Proto:      req.Proto,
				ProtoMajor: req.ProtoMajor,
				ProtoMinor: req.ProtoMinor,
				Header:     http.Header{"Content-Type": {"text/plain"}},
				Body:       io.NopCloser(strings.NewReader("chaos: injected 503")),
				Request:    req,
			}, nil
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if p := in.plan.HTTP.CutProb; p > 0 {
		if n, r := in.next("http", "cut", host); r < p {
			in.record(Fault{Seam: "http", Op: "cut", Target: host, Call: n})
			resp.Body = &cutBody{rc: resp.Body, remaining: 256}
		}
	}
	return resp, nil
}

// cutBody severs a response body after remaining bytes, simulating a
// worker dying mid-stream: the reader sees an unexpected EOF, not a
// clean end.
type cutBody struct {
	rc        io.ReadCloser
	remaining int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("chaos: stream cut mid-body: %w", io.ErrUnexpectedEOF)
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= n
	if err == io.EOF {
		return n, err
	}
	if c.remaining <= 0 && err == nil {
		err = fmt.Errorf("chaos: stream cut mid-body: %w", io.ErrUnexpectedEOF)
	}
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }
