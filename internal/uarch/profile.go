package uarch

// Performance-aware sampling profile. PC-bucket signatures alone
// distinguish intervals by *what code* they run; on quasi-stationary
// streams every interval runs the same code mix and the signatures
// collapse into undifferentiated noise, so clustering them buys the
// sampled estimator no variance reduction. What actually moves
// per-interval IPC is realised microarchitectural behaviour — cache
// misses and branch mispredicts — which a functional pass over the
// stream observes almost exactly as the detailed pipeline would. The
// sampling profile therefore appends two auxiliary features to each
// interval signature: mean load latency per instruction and the
// conditional-branch mispredict rate. Clustering on the combined vector
// groups intervals that will *perform* alike, which is what makes
// stratified window selection actually shrink the sampling error.

import (
	"halfprice/internal/bpred"
	"halfprice/internal/mem"
	"halfprice/internal/trace"
)

// profileAuxDims is the number of auxiliary performance features per
// interval: load-latency cycles per instruction and mispredicts per
// instruction.
const profileAuxDims = 2

// ProfileForSampling drains the stream and returns its interval profile
// with performance features, using the same functional cache and branch
// predictor models the sampled run warms with (so the features reflect
// the config's actual memory hierarchy and predictor). Deterministic:
// the same stream and config always yield the identical profile.
func ProfileForSampling(cfg Config, s trace.Stream, interval uint64) trace.IntervalProfile {
	warm := &funcWarmer{
		hier:     mem.NewHierarchy(cfg.Mem),
		bp:       bpred.New(cfg.Bpred),
		lineMask: ^uint64(cfg.Mem.IL1.LineSize - 1),
	}
	p := trace.NewIntervalProfiler(interval, profileAuxDims)
	in := readerOf(s)
	var d trace.DynInst
	for in.NextInto(&d) {
		lat, misp := warm.observe(&d)
		if lat > 0 {
			p.AddAux(0, float64(lat))
		}
		if misp {
			p.AddAux(1, 1)
		}
		p.Observe(d)
	}
	return p.Profile()
}
