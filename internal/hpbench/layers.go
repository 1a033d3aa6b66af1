package hpbench

import (
	"fmt"
	"time"
)

func errUnknownBench(name string) error { return fmt.Errorf("unknown benchmark %q", name) }

// layerMetrics derives the span-based per-layer metrics of a traced run.
// units is the number of traced units and capacity the worker-seconds
// they offered (traced wall time × simulations allowed in flight), the
// base of busy_frac and span_cover.
func (e *env) layerMetrics(units int, capacity float64) {
	if units == 0 {
		return
	}
	spans := e.tr.Spans()
	m := e.res.Metrics
	per := func(d time.Duration) float64 { return d.Seconds() / float64(units) }
	perN := func(n uint64) float64 { return float64(n) / float64(units) }

	self := selfTimes(spans, "trace")
	for _, layer := range []string{"trace", "uarch", "sample", "experiments"} {
		m[layer+".self_s"] = per(self[layer])
	}
	if capacity > 0 {
		var explained time.Duration
		for layer, d := range self {
			if layer != "bench" {
				explained += d
			}
		}
		m["bench.span_cover"] = explained.Seconds() / capacity
	}

	ss := summarize(spans)
	if n := e.sim.nextTimed.Load(); n > 0 {
		m["trace.next_ns"] = float64(e.sim.nextTimedNs.Load()) / float64(n)
	}
	var runNs time.Duration
	for _, s := range spans {
		if s.Name == "uarch.run" {
			runNs += s.End - s.Start - s.Untimed
		}
	}
	if c := e.sim.cycles.Load(); c > 0 {
		m["uarch.ns_per_cycle"] = float64(runNs) / float64(c)
		m["uarch.cycles"] = perN(c)
		m["uarch.insts"] = perN(e.sim.insts.Load())
	}
	if n := ss.count["uarch.new"]; n > 0 {
		m["uarch.new_us"] = float64(ss.dur["uarch.new"]) / float64(n) / float64(time.Microsecond)
	}

	m["sample.profile_s"] = per(ss.dur["sample.profile"])
	m["sample.plan_s"] = per(ss.dur["sample.plan"])
	m["sample.detail_s"] = per(ss.dur["uarch.sampled"])
	if r := e.sim.represented.Load(); r > 0 {
		m["sample.detailed_frac"] = float64(e.sim.detailed.Load()) / float64(r)
	}

	exec := ss.dur["experiments.exec"]
	m["experiments.exec_s"] = per(exec)
	if capacity > 0 {
		m["experiments.busy_frac"] = exec.Seconds() / capacity
	}
	e.res.spanTail("experiments.exec_ms", ss.samples["experiments.exec"])

	for _, op := range []string{"read", "write", "fsync", "rename"} {
		m["store."+op+"_s"] = per(ss.dur["store."+op])
	}
	m["serve.journal_fsync_s"] = per(ss.dur["serve.fsync"])
	e.res.spanTail("dist.rpc_ms", ss.samples["dist.rpc"])
	e.res.spanTail("dist.worker_ms", ss.samples["dist.worker"])
}

// spanTail stores the median and tail percentile of a layer's span
// durations (ms) as <prefix>_p50 and <prefix>_p95; a layer without
// spans keeps its zeros.
func (r *Result) spanTail(prefix string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	r.Metrics[prefix+"_p50"] = median(ms)
	r.tailMetric(prefix+"_p95", ms)
}
