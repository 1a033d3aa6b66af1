package uarch

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"halfprice/internal/trace"
)

// TestDebugSimultaneous dumps the instruction sites responsible for
// simultaneous wakeups in one profile (HALFPRICE_DEBUG=<bench>).
func TestDebugSimultaneous(t *testing.T) {
	bench := os.Getenv("HALFPRICE_DEBUG")
	if bench == "" {
		t.Skip("set HALFPRICE_DEBUG=<bench>")
	}
	p, ok := trace.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown bench %q", bench)
	}
	cfg := Config4Wide()
	sim := New(cfg, trace.NewSynthetic(p, 200000))
	type key struct {
		pc uint64
	}
	simCount := map[key]int{}
	totCount := map[key]int{}
	info := map[key]string{}
	sim.onCommit = func(u *uop) {
		if !u.is2Source() || !u.pendingAtInsert[0] || !u.pendingAtInsert[1] {
			return
		}
		k := key{u.pc}
		totCount[k]++
		w0, w1 := u.src[0].resultCycle, u.src[1].resultCycle
		if w0 == w1 {
			simCount[k]++
			info[k] = fmt.Sprintf("%v  p0=%v(d%d,iss%d) p1=%v(d%d,iss%d)",
				u.inst, u.src[0].inst.Op, u.seq-u.src[0].seq, w0-u.src[0].issueCycle,
				u.src[1].inst.Op, u.seq-u.src[1].seq, w1-u.src[1].issueCycle)
		}
	}
	sim.Run()
	type row struct {
		k    key
		n, t int
	}
	var rows []row
	for k, n := range simCount {
		rows = append(rows, row{k, n, totCount[k]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	tot, simTot := 0, 0
	for _, r := range rows {
		simTot += r.n
	}
	for _, n := range totCount {
		tot += n
	}
	t.Logf("%s: %d 2-pending, %d simultaneous (%.1f%%), %d sim sites", bench, tot, simTot, 100*float64(simTot)/float64(tot), len(rows))
	for i, r := range rows {
		if i >= 10 {
			break
		}
		t.Logf("  pc=%#x  sim=%d/%d  %s", r.k.pc, r.n, r.t, info[r.k])
	}
}
