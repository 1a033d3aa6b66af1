// Package chaos is the repo's deterministic fault-injection layer: a
// seeded Plan compiles into injectable seams — a faulty
// http.RoundTripper for the dist coordinator and a faulty FS for the
// result store and the serve journal — so a whole-stack fault storm
// (serve → dist → store) is reproducible from a single integer seed.
//
// Determinism contract. Every fault decision is a pure function of
// (plan seed, seam, operation, target, per-target call index): the
// injector derives each decision by hashing those coordinates, never
// by consuming a shared rng stream. Concurrent goroutines therefore
// cannot perturb each other's fault schedules — the n-th write to a
// given file, or the n-th request to a given worker, sees the same
// verdict on every run with the same seed, regardless of interleaving.
// Plan.ScheduleDigest exposes that property directly: same plan, same
// digest, forever.
//
// The package deliberately imports only the standard library so that
// internal/dist, internal/serve and internal/store can depend on its
// seams without cycles.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Plan is a declarative, seeded fault schedule. The zero value injects
// nothing; Compile rejects a zero Seed so every chaos run names its
// seed explicitly (the same discipline the seedplumb analyzer enforces
// on the simulator's rngs).
type Plan struct {
	// Seed drives every probabilistic fault decision. Required non-zero.
	Seed int64

	// HTTP configures the faulty RoundTripper seams.
	HTTP HTTPFaults
	// FS configures the faulty filesystem seams.
	FS FSFaults
	// Partitions are scheduled network partitions: while one is active
	// (relative to Compile time), every request to its target host
	// fails as if the network dropped it.
	Partitions []Partition
}

// HTTPFaults configures the Transport seam. Probabilities are in
// [0, 1]; zero disables that fault.
type HTTPFaults struct {
	// DropProb fails the request before it is sent, as a refused or
	// reset connection would.
	DropProb float64
	// DelayProb sleeps the request before dispatch, for a
	// deterministic fraction of MaxDelay.
	DelayProb float64
	// MaxDelay bounds injected delays (default 100ms when DelayProb>0).
	MaxDelay time.Duration
	// Error5xxProb short-circuits the request with a synthesized
	// 503 response, as an overloaded or draining worker would.
	Error5xxProb float64
	// CutProb lets the request through but severs the response body
	// mid-stream, as a worker dying while streaming would.
	CutProb float64
}

// FSFaults configures the FS seam. Probabilities are in [0, 1]; zero
// disables that fault.
type FSFaults struct {
	// PathContains scopes faults to paths containing this substring
	// (empty = every path the wrapped FS touches).
	PathContains string
	// WriteErrProb fails a File.Write with a synthesized I/O error.
	WriteErrProb float64
	// ShortWriteProb makes a File.Write persist only half its bytes
	// and report io.ErrShortWrite.
	ShortWriteProb float64
	// ReadErrProb fails a ReadFile with a synthesized I/O error.
	ReadErrProb float64
	// SlowSyncProb delays a File.Sync by SyncDelay — the "slow fsync"
	// disk.
	SlowSyncProb float64
	// SyncDelay is the injected fsync latency (default 50ms when
	// SlowSyncProb > 0).
	SyncDelay time.Duration
}

// Partition is one scheduled network partition of a single target.
type Partition struct {
	// Target matches request hosts ("host:port"); a request whose URL
	// host equals Target fails while the partition is active.
	Target string
	// After is when the partition begins, relative to Compile time.
	After time.Duration
	// For is how long it lasts.
	For time.Duration
}

// Fault is one injected fault, recorded in the injector's log.
type Fault struct {
	Seam   string // "http" or "fs"
	Op     string // e.g. "drop", "5xx", "cut", "write-err", "slow-sync"
	Target string // worker host or file path
	Call   uint64 // per-(op,target) call index the decision keyed on
}

func (f Fault) String() string {
	return fmt.Sprintf("%s.%s %s #%d", f.Seam, f.Op, f.Target, f.Call)
}

// Injector is a compiled Plan: it hands out the faulty seams and
// records every fault it injects. Safe for concurrent use.
type Injector struct {
	plan  Plan
	start time.Time

	mu       sync.Mutex
	counters map[string]uint64 // per (op, target) call index
	log      []Fault
}

// Compile validates the plan and starts its partition windows' clock.
func (p Plan) Compile() (*Injector, error) {
	if p.Seed == 0 {
		return nil, fmt.Errorf("chaos: plan needs an explicit non-zero seed")
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"http.drop", p.HTTP.DropProb}, {"http.delay", p.HTTP.DelayProb},
		{"http.5xx", p.HTTP.Error5xxProb}, {"http.cut", p.HTTP.CutProb},
		{"fs.write-err", p.FS.WriteErrProb}, {"fs.short-write", p.FS.ShortWriteProb},
		{"fs.read-err", p.FS.ReadErrProb}, {"fs.slow-sync", p.FS.SlowSyncProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return nil, fmt.Errorf("chaos: %s probability %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.HTTP.MaxDelay <= 0 {
		p.HTTP.MaxDelay = 100 * time.Millisecond
	}
	if p.FS.SyncDelay <= 0 {
		p.FS.SyncDelay = 50 * time.Millisecond
	}
	return &Injector{
		plan:     p,
		start:    time.Now(),
		counters: map[string]uint64{},
	}, nil
}

// MustCompile is Compile for plans known valid at authoring time.
func (p Plan) MustCompile() *Injector {
	in, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return in
}

// Faults returns a copy of the injected-fault log, in injection order.
// The log's order reflects runtime interleaving; the decisions behind
// it do not (see the package comment).
func (in *Injector) Faults() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.log...)
}

// next returns the call index for one (op, target) stream and the
// verdict roll for it.
func (in *Injector) next(seam, op, target string) (uint64, float64) {
	in.mu.Lock()
	k := op + "\x00" + target
	n := in.counters[k]
	in.counters[k] = n + 1
	in.mu.Unlock()
	return n, roll(in.plan.Seed, op, target, n)
}

// record appends one injected fault to the log.
func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.log = append(in.log, f)
	in.mu.Unlock()
}

// Roll maps (seed, op, target, call) to a uniform float64 in [0, 1)
// with the package's stateless hash. It is exported for components that
// schedule their own faults outside the Plan seams — cmd/sweepd's
// -chaos-seed pre-run delays key on it — so every injected decision in
// the tree obeys the same determinism contract: a pure function of its
// coordinates, never a shared rng stream.
func Roll(seed int64, op, target string, call uint64) float64 {
	return roll(seed, op, target, call)
}

// roll maps (seed, op, target, call) to a uniform float64 in [0, 1).
// It is the whole determinism story: a stateless hash, not a shared
// rng stream, so concurrent seams cannot perturb each other.
func roll(seed int64, op, target string, call uint64) float64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(target))
	binary.LittleEndian.PutUint64(b[:], call)
	h.Write(b[:])
	sum := h.Sum(nil)
	x := binary.LittleEndian.Uint64(sum[:8])
	return float64(x>>11) / (1 << 53)
}

// seamNames are every (seam, op) pair a plan can schedule, in digest
// order.
var seamNames = []struct{ seam, op string }{
	{"http", "drop"}, {"http", "delay"}, {"http", "5xx"}, {"http", "cut"},
	{"fs", "write-err"}, {"fs", "short-write"}, {"fs", "read-err"}, {"fs", "slow-sync"},
}

// opProb returns the plan's probability for one op.
func (p Plan) opProb(op string) float64 {
	switch op {
	case "drop":
		return p.HTTP.DropProb
	case "delay":
		return p.HTTP.DelayProb
	case "5xx":
		return p.HTTP.Error5xxProb
	case "cut":
		return p.HTTP.CutProb
	case "write-err":
		return p.FS.WriteErrProb
	case "short-write":
		return p.FS.ShortWriteProb
	case "read-err":
		return p.FS.ReadErrProb
	case "slow-sync":
		return p.FS.SlowSyncProb
	}
	return 0
}

// Schedule renders the plan's fault schedule for the given targets over
// the first calls operations each: one line per scheduled fault, sorted
// — a pure function of the plan, independent of runtime interleaving.
// chaos-smoke pins reproducibility on it: the same seed always renders
// the same schedule.
func (p Plan) Schedule(calls uint64, targets ...string) []string {
	var out []string
	for _, s := range seamNames {
		prob := p.opProb(s.op)
		if prob <= 0 {
			continue
		}
		for _, t := range targets {
			for n := uint64(0); n < calls; n++ {
				if roll(p.Seed, s.op, t, n) < prob {
					out = append(out, s.seam+"."+s.op+" "+t+" #"+strconv.FormatUint(n, 10))
				}
			}
		}
	}
	for _, pt := range p.Partitions {
		out = append(out, fmt.Sprintf("net.partition %s after=%s for=%s", pt.Target, pt.After, pt.For))
	}
	sort.Strings(out)
	return out
}

// ScheduleDigest is the sha256 of Schedule, hex-encoded — a compact
// reproducibility witness for logs and CI assertions.
func (p Plan) ScheduleDigest(calls uint64, targets ...string) string {
	h := sha256.New()
	for _, line := range p.Schedule(calls, targets...) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
