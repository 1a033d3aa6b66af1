package hpbench

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Its name is
// "<layer>.<operation>"; spans of one request share Req, and Parent
// names the span that caused it (0 for a root).
type Span struct {
	ID, Parent uint64
	Name       string
	Req        string
	Start, End time.Duration // since the tracer's epoch
	// Untimed is time inside the span spent in a lower layer that was
	// sampled rather than spanned (Stream.Next on every 16th call); it
	// counts as child time.
	Untimed time.Duration
}

// Layer is the span name's layer prefix.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer records spans in memory while it is on. A nil Tracer records
// nothing, so wrappers call it unconditionally. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	// timerCost is the shortest interval two back-to-back clock reads
	// measure; sampled timings subtract it.
	timerCost time.Duration

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer that is off until SetOn(true).
func NewTracer() *Tracer {
	cost := time.Duration(1 << 62)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		cost = min(cost, time.Since(t0))
	}
	return &Tracer{epoch: time.Now(), timerCost: cost}
}

// SetOn switches recording on or off.
func (t *Tracer) SetOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Active is a started span; End records it.
type Active struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	req    string
	start  time.Duration
}

// Start begins a span. When the tracer is off the returned span records
// nothing and has ID 0.
func (t *Tracer) Start(name string, parent uint64, req string) Active {
	if !t.On() {
		return Active{}
	}
	return Active{t: t, id: t.ids.Add(1), parent: parent, name: name, req: req, start: time.Since(t.epoch)}
}

// ID is the span's identifier, for use as a child's parent.
func (a Active) ID() uint64 { return a.id }

// End records the span.
func (a Active) End() { a.EndUntimed(0) }

// EndUntimed records the span with sampled child time untimed.
func (a Active) EndUntimed(untimed time.Duration) {
	if a.t == nil {
		return
	}
	s := Span{ID: a.id, Parent: a.parent, Name: a.name, Req: a.req,
		Start: a.start, End: time.Since(a.t.epoch), Untimed: untimed}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of it that its child spans cover (overlapping children
// count once) minus its untimed child time, summed by layer. Untimed
// time is credited to the layer named by untimedLayer.
func selfTimes(spans []Span, untimedLayer string) map[string]time.Duration {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID]) - s.Untimed
		out[s.Layer()] += max(self, 0)
		if s.Untimed > 0 {
			out[untimedLayer] += s.Untimed
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanStats sums durations and counts spans by name.
type spanStats struct {
	dur   map[string]time.Duration
	count map[string]int
	// samples holds every duration by name, for percentiles.
	samples map[string][]float64
}

func summarize(spans []Span) spanStats {
	st := spanStats{dur: map[string]time.Duration{}, count: map[string]int{}, samples: map[string][]float64{}}
	for _, s := range spans {
		d := s.End - s.Start
		st.dur[s.Name] += d
		st.count[s.Name]++
		st.samples[s.Name] = append(st.samples[s.Name], float64(d)/float64(time.Millisecond))
	}
	return st
}

// chromeEvent is one Chrome trace-event "complete" (ph X) event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Each root span and its descendants share
// one track (tid = the root's ID); args carry id, parent, req and the
// untimed child time in µs.
func WriteChrome(w io.Writer, spans []Span) error {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id uint64) uint64 {
		for i := 0; i < len(spans); i++ {
			p, ok := parent[id]
			if !ok || p == 0 {
				break
			}
			id = p
		}
		return id
	}
	tr := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Layer(), Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: root(s.ID),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "untimed_us": us(s.Untimed)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
