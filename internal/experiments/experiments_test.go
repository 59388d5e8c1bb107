package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallConfig keeps the full-suite smoke test fast.
func smallConfig() Config {
	return Config{Users: 2000, Trials: 1, Seed: 42}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, e, smallConfig()); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("output missing header: %q", out[:min(80, len(out))])
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s produced suspiciously short output:\n%s", e.ID, out)
			}
		})
	}
}

// TestExperimentGoldens pins the tables of the experiments that run on
// the served code (served.go) at smallConfig, byte for byte:
// testdata/<id>.txt is the table as it was printed before E5 moved off
// its offline CMS/HCMS servers, so a change to the served sketch or hh
// path that moves a number shows here.
func TestExperimentGoldens(t *testing.T) {
	for _, id := range []string{"E5", "E18"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Run(&got, e, smallConfig()); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s table differs from testdata/%s.txt:\n%s\nwant:\n%s", id, id, got.Bytes(), want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E2")
	if err != nil || e.ID != "E2" {
		t.Fatalf("ByID(E2) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Users: 10, Trials: 1}).Validate(); err == nil {
		t.Error("tiny population accepted")
	}
	if err := (Config{Users: 1000, Trials: 0}).Validate(); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var buf bytes.Buffer
	e, _ := ByID("E1")
	if err := Run(&buf, e, Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if len(seen) != 18 {
		t.Fatalf("have %d experiments, want 18", len(seen))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
