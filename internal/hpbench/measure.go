package hpbench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"

	"halfprice/internal/uarch"
)

// deriveSeed mixes the run seed with a label (splitmix64 finaliser) into
// a stable non-zero value, so every generated input draws from its own
// stream.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := (seed ^ h.Sum64()) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMin is how many samples must lie beyond a reported tail
// percentile.
const tailMin = 10

// tail returns a tail percentile of xs: the highest percentile up to
// maxP that still has at least ten samples beyond it, by nearest rank.
// It also returns the percentile it used and the sample count. With too
// few samples for any tail it falls back to the upper median.
func tail(xs []float64, maxP float64) (v, p float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(maxP / 100 * float64(n)))
	k = min(k, n-tailMin)
	k = max(k, (n+1)/2)
	return s[k-1], 100 * float64(k) / float64(n), n
}

// tailMetric stores a tail percentile under name and notes which
// percentile of how many samples it is.
func (r *Result) tailMetric(name string, xs []float64) {
	v, p, n := tail(xs, 95)
	r.Metrics[name] = v
	r.note("%s is p%.0f of n=%d", name, p, n)
}

// rtSample is a snapshot of the runtime counters the per-layer
// runtime.* metrics difference.
type rtSample struct {
	gcCPU, totalCPU, idleCPU float64
	gcCycles                 uint64
	allocBytes, allocObjs    uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), gcCycles: u(3), allocBytes: u(4), allocObjs: u(5)}
}

// rtDelta accumulates runtime counter deltas over the units that feed
// the runtime.* metrics.
type rtDelta struct {
	rtSample
	insts uint64 // simulated instructions in those units
	units int
}

func (d *rtDelta) add(before, after rtSample, insts uint64) {
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
	d.idleCPU += after.idleCPU - before.idleCPU
	d.gcCycles += after.gcCycles - before.gcCycles
	d.allocBytes += after.allocBytes - before.allocBytes
	d.allocObjs += after.allocObjs - before.allocObjs
	d.insts += insts
	d.units++
}

// report writes the runtime.* metrics. The CPU classes are measured
// over whole GC cycles, so gc_cpu_frac needs a window spanning several.
func (d *rtDelta) report(r *Result) {
	if d.units == 0 {
		return
	}
	if busy := d.totalCPU - d.idleCPU; busy > 0 {
		r.Metrics["runtime.gc_cpu_frac"] = d.gcCPU / busy
	}
	r.Metrics["runtime.gc_cycles"] = float64(d.gcCycles) / float64(d.units)
	r.Metrics["runtime.alloc_bytes"] = float64(d.allocBytes) / float64(d.units)
	r.Metrics["runtime.max_rss_mb"] = maxRSSMB()
}

// reportAllocs writes the end-to-end allocation metrics: heap bytes and
// objects the process allocated per simulated instruction.
func (d *rtDelta) reportAllocs(r *Result) {
	if d.insts > 0 {
		r.Metrics["alloc_bytes_per_inst"] = float64(d.allocBytes) / float64(d.insts)
		r.Metrics["allocs_per_kinst"] = float64(d.allocObjs) / float64(d.insts) * 1000
	}
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// digest accumulates the simulated Stats of a run under stable keys; its
// sum is independent of the order results arrived in. Safe for
// concurrent use.
type digest struct {
	mu sync.Mutex
	m  map[string]string
}

func newDigest() *digest { return &digest{m: map[string]string{}} }

// add records st under key. A key seen before must carry identical
// Stats; add reports the mismatch otherwise.
func (d *digest) add(key string, st *uarch.Stats) error {
	sum, err := statsSum(st)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.m[key]; ok && prev != sum {
		return fmt.Errorf("Stats for %s differ between repeats", key)
	}
	d.m[key] = sum
	return nil
}

// sum is the sha256 over every key and Stats hash, in key order.
func (d *digest) sum() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%s\n", k, d.m[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// statsSum hashes the JSON form of st — the same bytes the store and
// the wire protocols carry.
func statsSum(st *uarch.Stats) (string, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return "", fmt.Errorf("encoding stats: %w", err)
	}
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:]), nil
}

// timeSetup runs set-up n times and returns the median duration in
// seconds; every set-up but the last is torn down again.
func timeSetup(n int, setup func(last bool) (float64, error)) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t, err := setup(i == n-1)
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
	}
	return median(ts), nil
}
