package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFaultDisarmedPassesThroughAndCounts pins the contract the sweep
// tests build on: a disarmed Fault is transparent, and Ops() after a
// dry run reports the number of fault points a scenario has.
func TestFaultDisarmedPassesThroughAndCounts(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS)

	sub := filepath.Join(dir, "sub")
	if err := f.MkdirAll(sub, 0o755); err != nil { // op 0
		t.Fatal(err)
	}
	file, err := f.OpenFile(filepath.Join(sub, "a"), os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("hello")); err != nil { // op 2
		t.Fatal(err)
	}
	if err := file.Sync(); err != nil { // op 3
		t.Fatal(err)
	}
	if err := file.Close(); err != nil { // not a fault point
		t.Fatal(err)
	}
	if err := f.Rename(filepath.Join(sub, "a"), filepath.Join(sub, "b")); err != nil { // op 4
		t.Fatal(err)
	}
	if _, err := f.ReadFile(filepath.Join(sub, "b")); err != nil { // reads don't count
		t.Fatal(err)
	}
	if got := f.Ops(); got != 5 {
		t.Fatalf("Ops() = %d, want 5 (mkdir, open, write, sync, rename)", got)
	}
	if f.Fired() {
		t.Fatal("disarmed fault reported Fired")
	}
}

// TestFaultFailAtIsTransient: the armed operation fails once, and the
// very next mutation succeeds — the ENOSPC-style blip the journal's
// broken/recover path is built around.
func TestFaultFailAtIsTransient(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS)
	f.FailAt(1)

	if err := f.MkdirAll(filepath.Join(dir, "x"), 0o755); err != nil { // op 0
		t.Fatal(err)
	}
	err := f.MkdirAll(filepath.Join(dir, "y"), 0o755) // op 1: injected
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("op 1 error = %v, want ErrInjected", err)
	}
	if !f.Fired() {
		t.Fatal("fault did not report Fired")
	}
	if err := f.MkdirAll(filepath.Join(dir, "z"), 0o755); err != nil { // op 2: back to normal
		t.Fatalf("op after transient fault failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "y")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed MkdirAll still reached the disk")
	}
}

// TestFaultCrashAtKillsEveryLaterMutation: after the crash point, all
// mutations fail with ErrCrashed and nothing reaches the disk, while
// reads keep working so the "restart" can inspect the directory.
func TestFaultCrashAtKillsEveryLaterMutation(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS)
	f.CrashAt(1)

	if err := f.MkdirAll(filepath.Join(dir, "pre"), 0o755); err != nil { // op 0
		t.Fatal(err)
	}
	if err := f.MkdirAll(filepath.Join(dir, "at"), 0o755); !errors.Is(err, ErrInjected) { // op 1
		t.Fatalf("crash op error = %v, want ErrInjected", err)
	}
	for i := 0; i < 3; i++ {
		if err := f.MkdirAll(filepath.Join(dir, "post"), 0o755); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash mutation %d error = %v, want ErrCrashed", i, err)
		}
	}
	// Post-crash mutations are not counted: the sweep's op space is
	// exactly the dry run's.
	if got := f.Ops(); got != 2 {
		t.Fatalf("Ops() = %d, want 2", got)
	}
	if _, err := f.ReadDir(dir); err != nil {
		t.Fatalf("post-crash read failed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "pre" {
		t.Fatalf("directory after crash = %v, want only \"pre\"", entries)
	}
}

// TestFaultCrashTornWrite: the armed write leaves the first half of
// its bytes in the file — the torn-frame debris the journal replay
// must truncate away.
func TestFaultCrashTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	f := NewFault(OS)
	f.CrashTornAt(1)

	file, err := f.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // op 0
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := file.Write(payload) // op 1: torn
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want %d", n, len(payload)/2)
	}
	file.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234567" {
		t.Fatalf("file after torn write = %q, want first half %q", got, "01234567")
	}
}

// TestFaultRearmResetsCounter: re-arming (or disarming) resets the
// operation counter, so one Fault value can run a dry run and then
// every armed scenario of a sweep.
func TestFaultRearmResetsCounter(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS)
	for i := 0; i < 3; i++ {
		if err := f.MkdirAll(filepath.Join(dir, "a"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	f.FailAt(0)
	if err := f.MkdirAll(filepath.Join(dir, "b"), 0o755); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 0 after re-arm = %v, want ErrInjected", err)
	}
	f.Disarm()
	if got := f.Ops(); got != 0 {
		t.Fatalf("Ops() after Disarm = %d, want 0", got)
	}
}

// TestWriteFileAtomicAtEveryFaultPoint fails and tears each mutating
// operation of an atomic overwrite in turn: the target always reads as
// exactly the old or exactly the new content, a transient failure
// leaves no temp file behind, and an undisturbed write takes five
// fault points (create, write, sync, rename, dir sync).
func TestWriteFileAtomicAtEveryFaultPoint(t *testing.T) {
	dry := NewFault(OS)
	if err := WriteFileAtomic(dry, filepath.Join(t.TempDir(), "target"), ".tmp-*", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if dry.Ops() != 5 {
		t.Fatalf("atomic write took %d fault points, want 5", dry.Ops())
	}
	for op := 0; op < dry.Ops(); op++ {
		for name, arm := range map[string]func(*Fault, int){"fail": (*Fault).FailAt, "torn": (*Fault).CrashTornAt} {
			dir := t.TempDir()
			target := filepath.Join(dir, "target")
			if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			f := NewFault(OS)
			arm(f, op)
			err := WriteFileAtomic(f, target, ".tmp-*", []byte("new-content"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("%s at op %d: error %v, want injected", name, op, err)
			}
			got, rerr := os.ReadFile(target)
			if rerr != nil {
				t.Fatal(rerr)
			}
			// The rename is op 3: a fault there or earlier keeps the old
			// file, one after it (the dir sync) has the new one in place.
			if want := map[bool]string{true: "old", false: "new-content"}[op <= 3]; string(got) != want {
				t.Errorf("%s at op %d: target reads %q, want %q", name, op, got, want)
			}
			if strays, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); name == "fail" && len(strays) != 0 {
				t.Errorf("transient failure at op %d left %v behind", op, strays)
			}
		}
	}
}
