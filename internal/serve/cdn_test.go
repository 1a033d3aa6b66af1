package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/store"
)

// TestCrossTenantCDNHit is the store-as-CDN acceptance test: a config
// simulated for one tenant is served to every other tenant from the
// shared result store — no second dispatch, a "hit" event in the
// stream, byte-identical result payloads, and the hit visible in
// /v1/stats.
func TestCrossTenantCDNHit(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backend := &fakeBackend{}
	s, ts := newTestServer(t, Options{
		Backend: backend,
		Store:   st,
		Tenants: map[string]string{"tok-alice": "alice", "tok-bob": "bob"},
	})

	spec := map[string]any{"bench": "gzip", "insts": 2000}
	va := submitJob(t, ts, "tok-alice", spec, http.StatusCreated)
	waitJobState(t, ts, "tok-alice", va.ID, StateDone)
	_, aliceBody, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+va.ID+"/result", "tok-alice", nil)

	// Bob resubmits the identical config: served from the store at
	// submit time, without ever reaching the backend.
	vb := submitJob(t, ts, "tok-bob", spec, http.StatusCreated)
	if vb.State != StateDone || !vb.Cached {
		t.Fatalf("cross-tenant resubmit state %q cached %v, want immediate cached done", vb.State, vb.Cached)
	}
	status, bobBody, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+vb.ID+"/result", "tok-bob", nil)
	if status != http.StatusOK {
		t.Fatalf("cached result status %d", status)
	}
	if !bytes.Equal(aliceBody, bobBody) {
		t.Fatalf("cached result differs across tenants:\n got %s\nwant %s", bobBody, aliceBody)
	}
	if n := len(backend.executions()); n != 1 {
		t.Fatalf("backend executed %d times, want 1 (second submit must be a CDN hit)", n)
	}
	kinds := eventKinds(jobEvents(t, ts, "tok-bob", vb.ID))
	wantKinds := []string{"queued", "hit", "done"}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("cached job events %v, want %v", kinds, wantKinds)
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("cached job events %v, want %v", kinds, wantKinds)
		}
	}
	events := jobEvents(t, ts, "tok-bob", vb.ID)
	if events[1].Source != "cache" {
		t.Fatalf("hit event source %q, want %q", events[1].Source, "cache")
	}
	if sv := s.Stats(); sv.StoreHits != 1 || sv.Dispatched != 1 || sv.Done != 2 {
		t.Fatalf("stats %+v, want 1 store hit / 1 dispatch / 2 done", sv)
	}
}

// TestSharedCacheElection pins the cross-process CDN contract at the
// serve layer: two independent servers (separate journals, separate
// store handles) over one shared cache directory receive the same
// config concurrently, and the store's per-key lock elects exactly one
// of them to simulate — the other serves the winner's bytes.
func TestSharedCacheElection(t *testing.T) {
	cacheDir := t.TempDir()
	openStore := func() *store.Store {
		st, err := store.Open(cacheDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	b1 := &fakeBackend{gate: gate}
	b2 := &fakeBackend{gate: gate}
	s1, ts1 := newTestServer(t, Options{Backend: b1, Store: openStore(), Workers: 1})
	s2, ts2 := newTestServer(t, Options{Backend: b2, Store: openStore(), Workers: 1})

	spec := map[string]any{"bench": "mcf", "insts": 3000}
	v1 := submitJob(t, ts1, "", spec, http.StatusCreated)
	v2 := submitJob(t, ts2, "", spec, http.StatusCreated)

	// Wait until the election winner is parked inside its compute; the
	// loser is blocked on the winner's advisory lock (or still queued).
	deadline := time.Now().Add(5 * time.Second)
	for len(b1.executions())+len(b2.executions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("neither server dispatched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	openGate()

	r1 := waitJobState(t, ts1, "", v1.ID, StateDone)
	r2 := waitJobState(t, ts2, "", v2.ID, StateDone)
	if got := len(b1.executions()) + len(b2.executions()); got != 1 {
		t.Fatalf("shared cache dir ran the simulation %d times, want exactly 1", got)
	}
	if !r1.Cached && !r2.Cached {
		t.Fatal("neither server reported the store hit")
	}
	_, body1, _ := doJSON(t, "GET", ts1.URL+"/v1/jobs/"+v1.ID+"/result", "", nil)
	_, body2, _ := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+v2.ID+"/result", "", nil)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("elected result differs across servers:\n s1 %s\n s2 %s", body1, body2)
	}
	st1, st2 := s1.Stats(), s2.Stats()
	if st1.Dispatched+st2.Dispatched != 1 || st1.StoreHits+st2.StoreHits != 1 {
		t.Fatalf("stats s1 %+v s2 %+v, want one dispatch and one store hit total", st1, st2)
	}
}

// TestDrainRedispatch covers the fleet-lifecycle interaction: hpserve
// jobs queued against a two-worker fleet keep flowing when one worker
// drains mid-queue — the coordinator re-dispatches to the survivor (or
// degrades to local), and every job still sees exactly one start and
// one finish event, with results identical to a local run.
func TestDrainRedispatch(t *testing.T) {
	w1 := dist.NewServer(dist.ServerOptions{Parallel: 1})
	w2 := dist.NewServer(dist.ServerOptions{Parallel: 1})
	h1 := httptest.NewServer(w1.Handler())
	h2 := httptest.NewServer(w2.Handler())
	defer h1.Close()
	defer h2.Close()
	coord := dist.NewCoordinator([]string{h1.URL, h2.URL}, dist.Options{
		Timeout:        30 * time.Second,
		HealthInterval: 25 * time.Millisecond,
	})
	defer coord.Close()
	_, ts := newTestServer(t, Options{Backend: coord, Workers: 2})

	specs := []map[string]any{
		{"bench": "gzip", "insts": 1500},
		{"bench": "mcf", "insts": 1600},
		{"bench": "crafty", "insts": 1700},
		{"bench": "vpr", "insts": 1800},
		{"bench": "gzip", "insts": 1900},
		{"bench": "mcf", "insts": 2100},
	}
	var ids []string
	for _, spec := range specs {
		ids = append(ids, submitJob(t, ts, "", spec, http.StatusCreated).ID)
	}
	// Jobs are queued and in flight; pull a worker out from under them.
	w1.Drain()

	for i, id := range ids {
		waitJobState(t, ts, "", id, StateDone)
		var starts, finishes int
		for _, e := range jobEvents(t, ts, "", id) {
			switch e.Event.Event {
			case "start":
				starts++
			case "finish":
				finishes++
			}
		}
		if starts != 1 || finishes != 1 {
			t.Fatalf("job %s saw %d starts / %d finishes across the drain, want exactly 1/1", id, starts, finishes)
		}
		sr := SubmitRequest{Bench: specs[i]["bench"].(string), Insts: uint64(specs[i]["insts"].(int))}
		req, err := sr.resolve(defaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiments.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		status, body, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "", nil)
		if status != http.StatusOK {
			t.Fatalf("result %s: status %d", id, status)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSpace(body); !bytes.Equal(got, wantJSON) {
			t.Fatalf("job %s result differs from local run:\n got %s\nwant %s", id, got, wantJSON)
		}
	}
}
