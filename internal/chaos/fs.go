package chaos

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// File is the subset of *os.File the store and the serve journal use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// FS is the filesystem seam internal/store and internal/serve write
// through. OS is the production implementation; Injector.FS wraps any
// FS with the plan's injected disk faults.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough FS: the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Open(name string) (File, error)               { return os.Open(name) }
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// FS wraps base (nil = the real filesystem) with the plan's disk
// faults: EIO on writes and reads, short writes, slow fsync. Faults
// key on the file path, so the n-th write to a given file sees the
// same verdict on every run with the same seed.
func (in *Injector) FS(base FS) FS {
	if base == nil {
		base = OS{}
	}
	return &faultyFS{in: in, base: base}
}

type faultyFS struct {
	in   *Injector
	base FS
}

// inScope reports whether faults apply to this path.
func (f *faultyFS) inScope(path string) bool {
	pc := f.in.plan.FS.PathContains
	return pc == "" || strings.Contains(path, pc)
}

func (f *faultyFS) MkdirAll(path string, perm os.FileMode) error { return f.base.MkdirAll(path, perm) }
func (f *faultyFS) Rename(oldpath, newpath string) error         { return f.base.Rename(oldpath, newpath) }
func (f *faultyFS) Remove(name string) error                     { return f.base.Remove(name) }
func (f *faultyFS) Stat(name string) (os.FileInfo, error)        { return f.base.Stat(name) }

func (f *faultyFS) Open(name string) (File, error) {
	fl, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: fl}, nil
}

func (f *faultyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fl, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: fl}, nil
}

func (f *faultyFS) CreateTemp(dir, pattern string) (File, error) {
	fl, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: fl}, nil
}

func (f *faultyFS) ReadFile(name string) ([]byte, error) {
	if p := f.in.plan.FS.ReadErrProb; p > 0 && f.inScope(name) {
		if n, r := f.in.next("fs", "read-err", name); r < p {
			f.in.record(Fault{Seam: "fs", Op: "read-err", Target: name, Call: n})
			return nil, fmt.Errorf("chaos: injected read error: %s", name)
		}
	}
	return f.base.ReadFile(name)
}

// faultyFile injects write-path faults on one open file.
type faultyFile struct {
	fs *faultyFS
	f  File
}

func (w *faultyFile) Name() string               { return w.f.Name() }
func (w *faultyFile) Close() error               { return w.f.Close() }
func (w *faultyFile) Read(p []byte) (int, error) { return w.f.Read(p) }

func (w *faultyFile) Write(p []byte) (int, error) {
	in, name := w.fs.in, w.f.Name()
	if !w.fs.inScope(name) {
		return w.f.Write(p)
	}
	if pr := in.plan.FS.WriteErrProb; pr > 0 {
		if n, r := in.next("fs", "write-err", name); r < pr {
			in.record(Fault{Seam: "fs", Op: "write-err", Target: name, Call: n})
			return 0, fmt.Errorf("chaos: injected write error: %s", name)
		}
	}
	if pr := in.plan.FS.ShortWriteProb; pr > 0 && len(p) > 1 {
		if n, r := in.next("fs", "short-write", name); r < pr {
			in.record(Fault{Seam: "fs", Op: "short-write", Target: name, Call: n})
			nw, err := w.f.Write(p[:len(p)/2])
			if err != nil {
				return nw, err
			}
			return nw, io.ErrShortWrite
		}
	}
	return w.f.Write(p)
}

func (w *faultyFile) Sync() error {
	in, name := w.fs.in, w.f.Name()
	if pr := in.plan.FS.SlowSyncProb; pr > 0 && w.fs.inScope(name) {
		if n, r := in.next("fs", "slow-sync", name); r < pr {
			in.record(Fault{Seam: "fs", Op: "slow-sync", Target: name, Call: n})
			time.Sleep(in.plan.FS.SyncDelay)
		}
	}
	return w.f.Sync()
}
