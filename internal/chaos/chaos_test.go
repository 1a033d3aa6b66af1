package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCompileRejectsZeroSeed(t *testing.T) {
	if _, err := (Plan{}).Compile(); err == nil {
		t.Fatal("Compile accepted a zero seed")
	}
	if _, err := (Plan{Seed: 1, HTTP: HTTPFaults{DropProb: 1.5}}).Compile(); err == nil {
		t.Fatal("Compile accepted probability > 1")
	}
	if _, err := (Plan{Seed: 1}).Compile(); err != nil {
		t.Fatalf("Compile rejected a valid plan: %v", err)
	}
}

// TestScheduleReplay pins the determinism contract: the same plan
// renders the same schedule, and the schedule is non-trivial.
func TestScheduleReplay(t *testing.T) {
	p := Plan{Seed: 0xC0FFEE, HTTP: HTTPFaults{DropProb: 0.3, Error5xxProb: 0.2}, FS: FSFaults{WriteErrProb: 0.25}}
	d1 := p.ScheduleDigest(64, "a:1", "b:2", "journal")
	d2 := p.ScheduleDigest(64, "a:1", "b:2", "journal")
	if d1 != d2 {
		t.Fatalf("same plan, different digests: %s vs %s", d1, d2)
	}
	if lines := p.Schedule(64, "a:1", "b:2", "journal"); len(lines) == 0 {
		t.Fatal("plan with 0.3 drop probability scheduled zero faults over 192 calls")
	}
	q := p
	q.Seed = 0xBADF00D
	if q.ScheduleDigest(64, "a:1", "b:2", "journal") == d1 {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestInjectorMatchesSchedule pins that runtime injection agrees with
// the precomputed schedule: the n-th call for a target faults exactly
// when the schedule says so, regardless of which run asks.
func TestInjectorMatchesSchedule(t *testing.T) {
	p := Plan{Seed: 7, FS: FSFaults{WriteErrProb: 0.5}}
	dir := t.TempDir()
	path := filepath.Join(dir, "f")

	want := map[uint64]bool{}
	for _, line := range p.Schedule(32, path) {
		var n uint64
		if _, err := splitCall(line, &n); err == nil {
			want[n] = true
		}
	}

	in := p.MustCompile()
	fsys := in.FS(OS{})
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for n := uint64(0); n < 32; n++ {
		_, werr := f.Write([]byte("x"))
		if got := werr != nil; got != want[n] {
			t.Fatalf("write %d: fault=%v, schedule says %v", n, got, want[n])
		}
	}
}

// splitCall parses the trailing "#n" of one schedule line.
func splitCall(line string, n *uint64) (string, error) {
	i := strings.LastIndex(line, "#")
	if i < 0 {
		return "", errors.New("no call index")
	}
	var v uint64
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			return "", errors.New("bad call index")
		}
		v = v*10 + uint64(c-'0')
	}
	*n = v
	return line[:i], nil
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("y", 4096)))
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	t.Run("drop", func(t *testing.T) {
		in := Plan{Seed: 3, HTTP: HTTPFaults{DropProb: 1}}.MustCompile()
		hc := &http.Client{Transport: in.Transport(nil)}
		if _, err := hc.Get(srv.URL); err == nil {
			t.Fatal("DropProb=1 request succeeded")
		}
		if fs := in.Faults(); len(fs) != 1 || fs[0].Op != "drop" {
			t.Fatalf("fault log = %v, want one drop", fs)
		}
	})
	t.Run("5xx", func(t *testing.T) {
		in := Plan{Seed: 3, HTTP: HTTPFaults{Error5xxProb: 1}}.MustCompile()
		hc := &http.Client{Transport: in.Transport(nil)}
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
	})
	t.Run("cut", func(t *testing.T) {
		in := Plan{Seed: 3, HTTP: HTTPFaults{CutProb: 1}}.MustCompile()
		hc := &http.Client{Transport: in.Transport(nil)}
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut body read error = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("partition", func(t *testing.T) {
		// One plan per place a request can fall relative to the window.
		get := func(after, span time.Duration) error {
			in := Plan{Seed: 3, Partitions: []Partition{{Target: host, After: after, For: span}}}.MustCompile()
			resp, err := (&http.Client{Transport: in.Transport(nil)}).Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			return err
		}
		if err := get(time.Hour, time.Hour); err != nil {
			t.Fatalf("request before the partition window failed: %v", err)
		}
		if err := get(0, time.Hour); err == nil || !strings.Contains(err.Error(), "partitioned") {
			t.Fatalf("request inside the partition window: err = %v", err)
		}
		if err := get(0, time.Nanosecond); err != nil {
			t.Fatalf("request after the partition window failed: %v", err)
		}
	})
}

func TestFSShortWriteAndReadErr(t *testing.T) {
	dir := t.TempDir()
	in := Plan{Seed: 5, FS: FSFaults{ShortWriteProb: 1}}.MustCompile()
	fsys := in.FS(nil)
	f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if !errors.Is(werr, io.ErrShortWrite) || n != 5 {
		t.Fatalf("short write: n=%d err=%v, want 5, ErrShortWrite", n, werr)
	}

	rin := Plan{Seed: 5, FS: FSFaults{ReadErrProb: 1}}.MustCompile()
	if _, err := rin.FS(nil).ReadFile(filepath.Join(dir, "f")); err == nil {
		t.Fatal("ReadErrProb=1 read succeeded")
	}
}

func TestFSScopeFilter(t *testing.T) {
	dir := t.TempDir()
	in := Plan{Seed: 9, FS: FSFaults{WriteErrProb: 1, PathContains: "journal"}}.MustCompile()
	fsys := in.FS(nil)
	f, err := fsys.OpenFile(filepath.Join(dir, "other"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("out-of-scope path faulted: %v", err)
	}
	j, err := fsys.OpenFile(filepath.Join(dir, "journal"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Write([]byte("x")); err == nil {
		t.Fatal("in-scope path did not fault")
	}
}

func TestSlowSync(t *testing.T) {
	dir := t.TempDir()
	const delay = 30 * time.Millisecond
	in := Plan{Seed: 11, FS: FSFaults{SlowSyncProb: 1, SyncDelay: delay}}.MustCompile()
	fsys := in.FS(nil)
	f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("slow sync: %v", err)
	}
	if el := time.Since(t0); el < delay {
		t.Fatalf("slow sync took %s, want at least the injected %s", el, delay)
	}
	if fs := in.Faults(); len(fs) != 1 || fs[0].Op != "slow-sync" {
		t.Fatalf("fault log = %v, want one slow-sync", fs)
	}
}
