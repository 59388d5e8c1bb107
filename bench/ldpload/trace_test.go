package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/fsio"
)

// logFS records which methods were called with which first argument
// and returns a recognisable error from each, so the test can tell the
// wrapper forwarded both the call and its result.
type logFS struct{ calls []string }

var errLogged = errors.New("logFS result")

func (l *logFS) log(method, arg string) { l.calls = append(l.calls, method+" "+arg) }

func (l *logFS) MkdirAll(p string, _ fs.FileMode) error { l.log("MkdirAll", p); return errLogged }
func (l *logFS) CreateTemp(d, p string) (fsio.File, error) {
	l.log("CreateTemp", d+"/"+p)
	return &logFile{l, "temp"}, nil
}
func (l *logFS) OpenFile(p string, _ int, _ fs.FileMode) (fsio.File, error) {
	l.log("OpenFile", p)
	return &logFile{l, p}, nil
}
func (l *logFS) Rename(o, n string) error                { l.log("Rename", o+"->"+n); return errLogged }
func (l *logFS) Remove(p string) error                   { l.log("Remove", p); return errLogged }
func (l *logFS) ReadDir(p string) ([]fs.DirEntry, error) { l.log("ReadDir", p); return nil, errLogged }
func (l *logFS) ReadFile(p string) ([]byte, error) {
	l.log("ReadFile", p)
	return []byte("x"), errLogged
}
func (l *logFS) Stat(p string) (fs.FileInfo, error) { l.log("Stat", p); return nil, errLogged }
func (l *logFS) Glob(p string) ([]string, error)    { l.log("Glob", p); return []string{"g"}, errLogged }
func (l *logFS) Truncate(p string, _ int64) error   { l.log("Truncate", p); return errLogged }
func (l *logFS) SyncDir(p string) error             { l.log("SyncDir", p); return errLogged }

type logFile struct {
	l    *logFS
	name string
}

func (f *logFile) Write(p []byte) (int, error) {
	f.l.log("File.Write", f.name)
	return len(p) - 1, errLogged
}
func (f *logFile) Sync() error  { f.l.log("File.Sync", f.name); return errLogged }
func (f *logFile) Close() error { f.l.log("File.Close", f.name); return errLogged }
func (f *logFile) Name() string { f.l.log("File.Name", f.name); return f.name }

func TestCountingFSDelegatesAndCounts(t *testing.T) {
	inner := &logFS{}
	tr := &tracer{on: true, t0: time.Now()}
	c := &countingFS{inner: inner, tr: tr}

	wantErr := func(method string, err error) {
		t.Helper()
		if !errors.Is(err, errLogged) {
			t.Errorf("%s did not return the inner filesystem's error: %v", method, err)
		}
	}
	wantErr("MkdirAll", c.MkdirAll("d", 0o755))
	wantErr("Rename", c.Rename("a", "b"))
	wantErr("Remove", c.Remove("r"))
	_, err := c.ReadDir("rd")
	wantErr("ReadDir", err)
	data, err := c.ReadFile("rf")
	wantErr("ReadFile", err)
	if string(data) != "x" {
		t.Errorf("ReadFile data %q not forwarded", data)
	}
	_, err = c.Stat("s")
	wantErr("Stat", err)
	globbed, err := c.Glob("g*")
	wantErr("Glob", err)
	if len(globbed) != 1 {
		t.Errorf("Glob result %v not forwarded", globbed)
	}
	wantErr("Truncate", c.Truncate("t", 3))
	wantErr("SyncDir", c.SyncDir("sd"))

	tmp, err := c.CreateTemp("d", "p-*")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := c.OpenFile("dir/bench.journal.000001", os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []fsio.File{tmp, seg} {
		n, err := f.Write(make([]byte, 11))
		wantErr("File.Write", err)
		if n != 10 {
			t.Errorf("File.Write returned %d, want the inner file's 10", n)
		}
		wantErr("File.Sync", f.Sync())
		wantErr("File.Close", f.Close())
	}
	if got := seg.Name(); got != "dir/bench.journal.000001" {
		t.Errorf("File.Name = %q", got)
	}

	// Every method of both interfaces reached the inner filesystem.
	seen := map[string]bool{}
	for _, call := range inner.calls {
		for i := range call {
			if call[i] == ' ' {
				seen[call[:i]] = true
				break
			}
		}
	}
	for _, iface := range []struct {
		prefix string
		typ    reflect.Type
	}{{"", reflect.TypeOf((*fsio.FS)(nil)).Elem()}, {"File.", reflect.TypeOf((*fsio.File)(nil)).Elem()}} {
		for i := 0; i < iface.typ.NumMethod(); i++ {
			if name := iface.prefix + iface.typ.Method(i).Name; !seen[name] {
				t.Errorf("%s was never delegated to the inner filesystem", name)
			}
		}
	}

	want := fsCounts{
		Writes: 2, WriteBytes: 20, JournalBytes: 10, // bytes as the inner file reported them
		Syncs:   3, // two files and one directory
		Renames: 1,
		Other:   9, // MkdirAll Remove ReadDir ReadFile Stat Glob Truncate CreateTemp OpenFile
	}
	if got := c.counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if got := c.counts().sub(fsCounts{Writes: 1, WriteBytes: 5}); got.Writes != 1 || got.WriteBytes != 15 {
		t.Errorf("sub = %+v", got)
	}

	// Writes, syncs and the rename are spans; nothing else is.
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	sort.Strings(names)
	wantNames := []string{"fsio.rename", "fsio.sync", "fsio.sync", "fsio.sync", "fsio.write", "fsio.write"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("spans %v, want %v", names, wantNames)
	}
}

func TestCountingFSOnRealFiles(t *testing.T) {
	dir := t.TempDir()
	c := &countingFS{inner: fsio.OS, tr: &tracer{}}
	f, err := c.OpenFile(filepath.Join(dir, "bench.journal.000001"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(f.Sync(), f.Close()); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(filepath.Join(dir, "bench.journal.000001"))
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if n := c.counts(); n.JournalBytes != 10 || n.Syncs != 1 || n.Writes != 1 {
		t.Errorf("counts = %+v", n)
	}
}

func TestSpansNestAndSelfTime(t *testing.T) {
	tr := &tracer{on: true, t0: time.Now()}
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	sibling := tr.begin("inner")
	tr.end(sibling)
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[2].Parent != outer || tr.spans[0].Parent != 0 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	kids := childTime(tr.spans, "")
	if kids[outer] != tr.spans[1].dur()+tr.spans[2].dur() {
		t.Errorf("child time %v, want the two inner spans", kids[outer])
	}
	if self := tr.spans[0].dur() - kids[outer]; self < 0 {
		t.Errorf("negative self time %v", self)
	}
	tr.on = false
	if id := tr.begin("off"); id != 0 || len(tr.spans) != 3 {
		t.Errorf("a span was recorded with recording off")
	}
	tr.end(0)
}
