package hpbench

import (
	"fmt"
	"time"

	"halfprice/internal/benchfmt"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// cell is one simulation of the core matrix.
type cell struct {
	id   string // bench/width/scheme
	prof trace.Profile
	skip uint64
	cfg  uarch.Config
}

// stream builds the cell's instruction stream, positioned at its offset.
func (c cell) stream(insts uint64) trace.Stream {
	s := trace.NewSynthetic(c.prof, c.skip+insts)
	for i := uint64(0); i < c.skip; i++ {
		s.Next()
	}
	return s
}

// coreCells builds the matrix in cmd/bench's order (width, scheme,
// bench). Every benchmark runs its calibrated program; the run seed
// picks where in it the simulated stretch starts (an offset below one
// cell's budget), the same for every width and scheme. Reseeding the
// programs themselves moved the matrix's host time by 10% from one seed
// to another, which would drown the regressions the benchmark exists
// to catch.
func coreCells(e *env) ([]cell, error) {
	var cells []cell
	for _, w := range []int{4, 8} {
		for _, scheme := range benchfmt.Schemes() {
			for _, b := range e.sz.coreBenches {
				p, ok := trace.ProfileByName(b)
				if !ok {
					return nil, errUnknownBench(b)
				}
				skip := deriveSeed(e.cfg.Seed, "core/"+b) % e.sz.coreInsts
				cfg, err := benchfmt.SchemeConfig(w, scheme)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell{id: fmt.Sprintf("%s/%dw/%s", b, w, scheme), prof: p, skip: skip, cfg: cfg})
			}
		}
	}
	return cells, nil
}

// checkCell verifies one cell's Stats: it committed exactly its budget
// and its CPI stack accounts for every cycle.
func checkCell(st *uarch.Stats, budget uint64) string {
	if st.Committed != budget {
		return fmt.Sprintf("committed %d of a %d-instruction budget", st.Committed, budget)
	}
	var sum uint64
	for _, n := range st.CycleClasses {
		sum += n
	}
	if sum != st.Cycles {
		return fmt.Sprintf("CPI stack sums to %d of %d cycles", sum, st.Cycles)
	}
	return ""
}

// runCore times every cell of the matrix once per pass. A cell's time is
// the median over passes, and wall_s is the sum of those medians: one
// pass with each cell's host noise voted out.
func runCore(e *env) error {
	cells, err := coreCells(e)
	if err != nil {
		return err
	}
	insts := e.sz.coreInsts
	warm := cells[0]
	setup, err := timeSetup(e.sz.setups, func(bool) (float64, error) {
		// One untimed cell pages the simulator in and steadies the heap.
		s := warm.stream(insts)
		t0 := time.Now()
		uarch.New(warm.cfg, s).Run()
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}

	dg := newDigest()
	durs := map[bool][][]float64{false: make([][]float64, len(cells)), true: make([][]float64, len(cells))}
	var rt rtDelta
	var tracedWall float64
	tracedPasses := 0
	start := time.Now()
	for pass := 0; e.window(start, pass, e.sz.minUnits); pass++ {
		traced := e.tracedUnit(pass)
		e.tr.SetOn(traced)
		before := readRuntime()
		var committed uint64
		for i, c := range cells {
			e.res.Attempted++
			// Positioning the stream at the cell's offset is input
			// preparation, not simulation: it stays outside the timing.
			s := c.stream(insts)
			t0 := time.Now()
			var st *uarch.Stats
			if traced {
				sp := e.tr.Start("bench.cell", 0, c.id)
				st = e.tracedSim(c.cfg, s, sp.ID(), c.id)
				sp.End()
			} else {
				st = uarch.New(c.cfg, s).Run()
			}
			d := time.Since(t0).Seconds()
			durs[traced][i] = append(durs[traced][i], d)
			if traced {
				tracedWall += d
			}
			committed += st.Committed
			msg := checkCell(st, insts)
			if msg == "" {
				if err := dg.add(c.id, st); err != nil {
					msg = err.Error()
				}
			}
			if msg != "" {
				e.res.Failed++
				e.res.problem("core %s pass %d: %s", c.id, pass, msg)
			}
		}
		if traced {
			tracedPasses++
		} else {
			rt.add(before, readRuntime(), committed)
		}
	}
	e.tr.SetOn(false)
	e.res.StatsSHA256 = dg.sum()

	sumMedians := func(traced bool) float64 {
		total := 0.0
		for _, ds := range durs[traced] {
			total += median(ds)
		}
		return total
	}
	wall := sumMedians(false)
	if e.tr == nil {
		e.res.Metrics["setup_s"] = setup
		e.res.Metrics["wall_s"] = wall
		e.res.Metrics["sim_minsts_per_s"] = float64(uint64(len(cells))*insts) / wall / 1e6
		rt.reportAllocs(e.res)
		return nil
	}
	e.res.Metrics["bench.trace_overhead"] = sumMedians(true)/wall - 1
	e.layerMetrics(tracedPasses, tracedWall)
	rt.report(e.res)
	return nil
}
