package hpbench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the root BENCHMARK.json from the catalogue")

// benchmarkFile is the root BENCHMARK.json, field for field.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundEntry    `json:"end_to_end"`
	PerLayer   []metricEntry   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundEntry struct {
	metricEntry
	Bound float64 `json:"bound"`
}

const repoRoot = "../.."

// expectedBenchmarkFile renders the catalogue as BENCHMARK.json.
func expectedBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "cmd/hpbench/run.sh"},
		Paths:      []string{"cmd/hpbench", "internal/hpbench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		f.EndToEnd = append(f.EndToEnd, boundEntry{metricEntry{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range PerLayer {
		f.PerLayer = append(f.PerLayer, metricEntry{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestBenchmarkJSONMatchesCatalogue pins the root BENCHMARK.json to the
// workloads, metrics, units, bounds and window defined here, and checks
// every path it lists exists. go test -run BenchmarkJSON -update
// rewrites it.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want := expectedBenchmarkFile()
	path := filepath.Join(repoRoot, "BENCHMARK.json")
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json does not match the catalogue; rerun with -update\n got %+v\nwant %+v", got, want)
	}
	for _, p := range append(append([]string(nil), got.Paths...), got.Command[1]) {
		if _, err := os.Stat(filepath.Join(repoRoot, p)); err != nil {
			t.Errorf("listed path %s: %v", p, err)
		}
	}
}

// TestCatalogueWithinLimits checks the limits BENCHMARK.json must meet:
// unique well-formed names, short one-line reasons, bounded end-to-end
// regressions with setup_s carrying the largest bound.
func TestCatalogueWithinLimits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		ok := len(n) > 0 && len(n) <= 64 && !seen[n]
		for i, r := range n {
			alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
			ok = ok && (alnum || i > 0 && (r == '_' || r == '.' || r == '-'))
		}
		if !ok {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	largest := 0.0
	for _, m := range EndToEnd {
		name(m.Name)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range PerLayer {
		name(m.Name)
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" || len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: better %q, unit %q", m.Name, m.Better, m.Unit)
		}
	}
	setup := EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound < largest {
		t.Errorf("setup_s must be an s/lower metric with the largest bound, got %+v", setup)
	}
}
