package uarch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"halfprice/internal/trace"
)

// This file keeps the pre-SoA scheduler alive as a reference
// implementation: the slice-gather, sort.Slice select loop that
// schedcore.go replaced, ported verbatim (modulo renames) from the old
// sched.go. TestSchedCoreEquivalence runs every calibrated workload
// under both schedulers and requires bit-identical Stats — the gate the
// refactor landed behind. The reference is injected through the
// test-only Simulator.issueOverride hook; everything downstream of
// selection (issueOne, squash, complete, commit) is shared, so the
// comparison isolates exactly what changed: request gathering and
// select ordering.

// The equivalence tests below compare two schedulers inside one build,
// so on their own they cannot notice a change that moves both. Each
// production run's Stats is therefore also pinned across commits: the
// sha256 of its JSON form must match its line in statsGoldenPath. Only a
// change that means to alter the simulated model rewrites the file, with
//
//	go test ./internal/uarch -run SchedCoreEquivalence -update
//
// and says so.
var update = flag.Bool("update", false, "rewrite testdata/stats.golden from this build's Stats")

const statsGoldenPath = "testdata/stats.golden"

// readStatsGolden loads statsGoldenPath as a map from run name to hash.
func readStatsGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(statsGoldenPath)
	if os.IsNotExist(err) && *update {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", statsGoldenPath, line)
		}
		golden[name] = sum
	}
	return golden
}

// checkStatsGolden compares st's hash with the golden line for name, or
// with -update records it there.
func checkStatsGolden(t *testing.T, name string, st *Stats) {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	got := hex.EncodeToString(h[:])
	golden := readStatsGolden(t)
	if *update {
		golden[name] = got
		names := make([]string, 0, len(golden))
		for n := range golden {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# sha256 of json.Marshal(Stats) per run; regenerate with\n")
		b.WriteString("# go test ./internal/uarch -run SchedCoreEquivalence -update\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, golden[n])
		}
		if err := os.WriteFile(statsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[name]
	switch {
	case !ok:
		t.Fatalf("%s: no line in %s (rerun with -update)", name, statsGoldenPath)
	case got != want:
		t.Fatalf("%s: Stats sha256 %s, golden %s: the simulated model changed", name, got, want)
	}
}

// referenceEligible is the old per-cycle eligibility test, re-deriving
// readiness from producer pointers instead of the cached wake cycle.
func (s *Simulator) referenceEligible(u *uop, c int64) bool {
	if u.state != stateWaiting || u.dispatchCycle >= c {
		return false
	}
	if s.cfg.Wakeup == WakeupTagElim && u.nsrc == 2 && !u.teScoreboard {
		return u.srcAvail(sideIndex(u.fastSide)) <= c
	}
	for i := 0; i < u.nsrc; i++ {
		if s.effSrcAvail(u, i) > c {
			return false
		}
	}
	return true
}

// referenceIssuePriority orders candidates: loads and branches first.
func referenceIssuePriority(u *uop) int {
	if u.isLoad() || u.isBranch() {
		return 0
	}
	return 1
}

// referenceIssue is the old wakeup/select stage: gather an eligible
// slice by scanning the window in age order, order it with sort.Slice,
// then run the same grant loop as the production issue().
func (s *Simulator) referenceIssue(c int64) {
	s.disabledSlots = s.disabledSlotsNext
	s.disabledSlotsNext = 0
	if c == s.issueBlockedCycle {
		return
	}
	slots := s.cfg.Width - s.disabledSlots
	if slots <= 0 {
		return
	}

	var cands []*uop
	for i := 0; i < s.sched.n; i++ {
		if u := s.sched.at(i); s.referenceEligible(u, c) {
			cands = append(cands, u)
		}
	}
	if len(cands) == 0 {
		return
	}
	switch s.cfg.Select {
	case SelectOldestFirst:
		sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	case SelectPositional:
		if len(cands) > 1 {
			rot := int(c) % len(cands)
			cands = append(cands[rot:], cands[:rot]...)
		}
	default: // SelectLoadBranchFirst
		sort.Slice(cands, func(i, j int) bool {
			pi, pj := referenceIssuePriority(cands[i]), referenceIssuePriority(cands[j])
			if pi != pj {
				return pi < pj
			}
			return cands[i].seq < cands[j].seq
		})
	}

	fu := s.newFUState(c)
	crossbarPorts := s.cfg.Width
	issued := 0
	var issuedThisCycle []*uop

	for _, u := range cands {
		if issued >= slots {
			break
		}
		portNeed := 0
		if s.cfg.Regfile == RFHalfCrossbar {
			for i := 0; i < u.nsrc; i++ {
				if !(u.src[i] != nil && u.src[i].resultAvail() == c) {
					portNeed++
				}
			}
			if portNeed > crossbarPorts && issued > 0 {
				s.st.CrossbarDeferrals++
				continue
			}
		}
		if s.bypassConflict(u, c) {
			s.st.BypassConflicts++
			continue
		}
		var forward bool
		if u.isLoad() {
			var ok bool
			forward, ok = s.lsqReadyForLoad(u, c)
			if !ok {
				continue
			}
		}
		lat := s.cfg.latency(u.class)
		if !s.take(&fu, u.class, c, lat) {
			continue
		}
		issued++
		if s.cfg.Regfile == RFHalfCrossbar {
			crossbarPorts -= portNeed
		}

		if s.cfg.Wakeup == WakeupTagElim && u.nsrc == 2 && !u.teScoreboard {
			other := 1 - sideIndex(u.fastSide)
			if u.srcAvail(other) > c {
				s.tagElimFault(u, c, issuedThisCycle)
				return
			}
		}

		s.issueOne(u, c, lat, forward)
		issuedThisCycle = append(issuedThisCycle, u)
	}
}

// equivSchemes are the configurations the refactor was gated on: the
// conventional baseline, the three half-price design points, a
// feature-soup configuration exercising every select policy, recovery
// scheme, and register-file variant the grant loop branches on, and the
// half-price rename and bypass extensions, which read the source count
// outside dispatch's uop build.
var equivSchemes = []struct {
	name   string
	mutate func(*Config)
}{
	{"base", nil},
	{"halfprice", func(c *Config) {
		c.Wakeup = WakeupSequential
		c.Regfile = RFSequential
	}},
	{"tagelim", func(c *Config) { c.Wakeup = WakeupTagElim }},
	{"pipelined-rf", func(c *Config) { c.Regfile = RFExtraStage }},
	{"soup", func(c *Config) {
		c.Wakeup = WakeupPipelined
		c.Regfile = RFHalfCrossbar
		c.Select = SelectPositional
		c.Recovery = RecoverySelective
	}},
	{"half-rename-bypass", func(c *Config) {
		c.Rename = RenameHalfPorts
		c.Bypass = BypassHalf
	}},
	// Latencies past the scheduler's 64-cycle calendar horizon: a memory
	// miss (2+8+150) and both dividers wake and complete beyond it, so
	// entries are filed in the overflow sets and refiled as they near.
	{"long-latency", func(c *Config) {
		c.Mem.MemLatency = 150
		c.IntDivLat = 90
		c.FpDivLat = 70
	}},
}

// TestSchedCoreEquivalence runs all calibrated workloads under both
// machine widths and every gating scheme, once with the production SoA
// scheduler and once with the reference slice-and-sort scheduler, and
// requires every Stats field to match exactly. Any divergence in
// request gathering, wake-cycle caching, or select ordering shows up as
// a differing issue somewhere in a 20k-instruction run. The production
// Stats must also match statsGoldenPath.
func TestSchedCoreEquivalence(t *testing.T) {
	const insts = 20000
	widths := []struct {
		name string
		cfg  func() Config
	}{
		{"4wide", Config4Wide},
		{"8wide", Config8Wide},
	}
	for _, bench := range trace.BenchmarkNames {
		for _, w := range widths {
			for _, sch := range equivSchemes {
				t.Run(fmt.Sprintf("%s/%s/%s", bench, w.name, sch.name), func(t *testing.T) {
					p, ok := trace.ProfileByName(bench)
					if !ok {
						t.Fatalf("unknown profile %s", bench)
					}
					cfg := w.cfg()
					if sch.mutate != nil {
						sch.mutate(&cfg)
					}
					got := New(cfg, trace.NewSynthetic(p, insts)).Run()
					checkStatsGolden(t, t.Name(), got)
					ref := New(cfg, trace.NewSynthetic(p, insts))
					ref.issueOverride = ref.referenceIssue
					want := ref.Run()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("SoA scheduler diverged from reference:\n got: %+v\nwant: %+v", got, want)
					}
				})
			}
		}
	}
	// RunSampled resets one simulator at each window over shared warm
	// state. It has no reference scheduler, so only the golden hash pins
	// it, including that the reset leaves nothing of the previous window
	// behind. The sparse plan fast-forwards between five windows; the dense
	// one puts a window on every interval of a short stream, so fetch-ahead
	// shrinks most warmups and folds many windows into their predecessor.
	plans := []struct {
		name     string
		budget   uint64
		interval uint64
		warmup   uint64
		k        int
	}{
		{"sampled", 200000, 4000, 800, 10},
		{"sampled-dense", 20000, 200, 300, 1},
	}
	for _, pl := range plans {
		for _, bench := range []string{"gzip", "mcf"} {
			for _, w := range widths {
				for _, sch := range equivSchemes {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", pl.name, bench, w.name, sch.name), func(t *testing.T) {
						p, _ := trace.ProfileByName(bench)
						cfg := w.cfg()
						if sch.mutate != nil {
							sch.mutate(&cfg)
						}
						ws := sampleEveryK(pl.budget, pl.interval, pl.warmup, pl.k)
						checkStatsGolden(t, t.Name(), RunSampled(cfg, trace.NewSynthetic(p, pl.budget), ws, pl.budget))
					})
				}
			}
		}
	}
}

// TestSchedCoreEquivalenceSelectOldest pins the remaining select policy
// (pure oldest-first) against the reference on a couple of workloads.
func TestSchedCoreEquivalenceSelectOldest(t *testing.T) {
	for _, bench := range []string{"gcc", "mcf"} {
		p, _ := trace.ProfileByName(bench)
		cfg := Config4Wide()
		cfg.Select = SelectOldestFirst
		got := New(cfg, trace.NewSynthetic(p, 20000)).Run()
		checkStatsGolden(t, t.Name()+"/"+bench, got)
		ref := New(cfg, trace.NewSynthetic(p, 20000))
		ref.issueOverride = ref.referenceIssue
		want := ref.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: oldest-first diverged from reference", bench)
		}
	}
}
