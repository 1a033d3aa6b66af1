package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// determinismScope lists the package suffixes (under the module path)
// whose code must be bit-stable across runs: the pipeline model, the
// workload generators, the functional simulator, and the experiment
// harness that renders the paper's tables and figures.
var determinismScope = []string{
	"internal/uarch",
	"internal/trace",
	"internal/vm",
	"internal/experiments",
	"internal/sample",   // seeded phase clustering: fully flagged, no exemption
	"internal/dist",     // inventoried here, exempted below — see determinismExempt
	"internal/store",    // inventoried here, exempted below — see determinismExempt
	"internal/benchfmt", // inventoried here, exempted below — see determinismExempt
	"internal/serve",    // inventoried here, exempted below — see determinismExempt
	"internal/chaos",    // inventoried here, exempted below — see determinismExempt
}

// determinismExempt carves packages out of determinismScope whose whole
// job is wall-clock time and concurrency: the distribution layer
// (internal/dist) retries with real backoff, health-checks workers on
// timers and streams results between goroutines, and the durable result
// store (internal/store) ages out stale lock files and polls for a
// competing process's result — none of which can ever influence
// simulation output. Workers and the store both carry results produced
// by the same deterministic path as a local run (the store verifies its
// payload bytes by checksum), and the equivalence tests pin the results
// bit-identical. The benchmark layer (internal/benchfmt) is the perf
// measurement path behind cmd/bench: its whole purpose is timing
// simulations with the wall clock, and the Stats it reports come out of
// the same deterministic simulator entry point as every test. The
// service layer (internal/serve) is a long-running multi-tenant daemon:
// job timestamps, queue-drain estimates and journal replay are
// inherently wall-clock and concurrent, while every simulation it
// serves goes through the same experiments.Backend seam as a local
// sweep — the service schedules work, it never computes results. The
// chaos harness (internal/chaos) is the fault-injection layer: its
// injected delays and partition windows are real time by definition,
// yet its fault *decisions* are already deterministic by construction —
// every verdict is a stateless hash of (seed, op, target, call index),
// never a wall-clock or global-rand read (Plan.ScheduleDigest pins
// this), so the analyzer's rules would only flag the sleeps the harness
// exists to inject. The exemption takes precedence over the scope
// list, so the boundary is explicit in code rather than implied by
// omission, and re-listing such a package in the scope later cannot
// silently outlaw its concurrency. internal/uarch, internal/trace and
// internal/vm stay fully flagged.
var determinismExempt = []string{
	"internal/dist",
	"internal/store",
	"internal/benchfmt",
	"internal/serve",
	"internal/chaos",
}

// determinismCoreScope is the inner subset of determinismScope where a
// single simulation runs: the pipeline model, the workload generators
// and the functional simulator. Concurrency belongs in the sweep layer
// (internal/experiments fans independent simulations out over a worker
// pool), never inside a simulation — a goroutine or a timed sleep in
// the core would make cycle-level results depend on the scheduler or
// the wall clock. `go` statements and time.Sleep are therefore
// forbidden here, on top of the whole-scope rules above.
var determinismCoreScope = []string{
	"internal/uarch",
	"internal/trace",
	"internal/vm",
}

// Determinism forbids nondeterminism sources in simulation packages:
// wall-clock reads (time.Now/Since/Until), the globally seeded
// math/rand generators, and ranging over a map, whose iteration order
// is deliberately randomised by the runtime. Simulation state and
// rendered output must not depend on any of them; iterate over sorted
// keys, use internal/trace's seeded xorshift RNG, or suppress with a
// justified //hp:nolint determinism when the loop is provably
// order-insensitive.
//
// Inside the simulation core (determinismCoreScope) two further
// constructs are forbidden: `go` statements and time.Sleep. One
// simulation is strictly single-threaded; parallelism lives in the
// sweep layer above it.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid time.Now, global math/rand, map ranges, and (in the sim core) go statements and time.Sleep",
		Run:  runDeterminism,
	}
}

func runDeterminism(m *Module) []Diagnostic {
	scope := map[string]bool{}
	for _, s := range determinismScope {
		scope[m.Path+"/"+s] = true
	}
	for _, s := range determinismExempt {
		scope[m.Path+"/"+s] = false
	}
	core := map[string]bool{}
	for _, s := range determinismCoreScope {
		core[m.Path+"/"+s] = true
	}
	var out []Diagnostic
	inspectFiles(m, func(p *Package) bool { return scope[p.Path] }, func(p *Package, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if d := checkDeterminismUse(m, p, n, core[p.Path]); d != nil {
					out = append(out, *d)
				}
			case *ast.GoStmt:
				if core[p.Path] {
					out = append(out, Diagnostic{
						Analyzer: "determinism",
						Pos:      m.Fset.Position(n.Go),
						Message:  "go statement inside the simulation core; one simulation is single-threaded — fan out in the sweep layer (internal/experiments) instead",
					})
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, Diagnostic{
						Analyzer: "determinism",
						Pos:      m.Fset.Position(n.Range),
						Message:  "range over a map has nondeterministic order; iterate over sorted keys (or //hp:nolint determinism with a reason if provably order-insensitive)",
					})
				}
			}
			return true
		})
	})
	return out
}

// checkDeterminismUse flags identifiers resolving to wall-clock reads
// or to package-level math/rand functions (which share the global,
// run-dependent source). Constructing explicitly seeded generators via
// rand.New*/rand.NewSource stays legal, as do rand.Rand methods. When
// core is set the package is in the simulation core, where time.Sleep
// is additionally forbidden.
func checkDeterminismUse(m *Module, p *Package, id *ast.Ident, core bool) *Diagnostic {
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil // methods are fine; only package-level functions are global state
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return &Diagnostic{
				Analyzer: "determinism",
				Pos:      m.Fset.Position(id.Pos()),
				Message:  fmt.Sprintf("time.%s reads the wall clock; simulation results must not depend on real time", fn.Name()),
			}
		case "Sleep":
			if core {
				return &Diagnostic{
					Analyzer: "determinism",
					Pos:      m.Fset.Position(id.Pos()),
					Message:  "time.Sleep inside the simulation core; simulated time advances by cycles, never by the wall clock",
				}
			}
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(fn.Name(), "New") {
			return nil
		}
		return &Diagnostic{
			Analyzer: "determinism",
			Pos:      m.Fset.Position(id.Pos()),
			Message:  fmt.Sprintf("%s.%s uses the global, run-dependent source; use the seeded trace RNG or an explicit rand.New(rand.NewSource(seed))", fn.Pkg().Path(), fn.Name()),
		}
	}
	return nil
}
