package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/task"
)

func testCfg() CollectionConfig {
	return FreqCollectionConfig(MechanismGRR, PrivacyParams{Epsilon: 2, Domain: 8}, 2)
}

func TestRegistryCreateGetDelete(t *testing.T) {
	reg := NewCollectionRegistry()
	c, err := reg.Create("study-a", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "study-a" || c.Config() != testCfg() || c.Aggregator() == nil {
		t.Fatalf("collection %+v", c)
	}
	if got, ok := reg.Get("study-a"); !ok || got != c {
		t.Fatal("Get did not return the created collection")
	}
	if _, err := reg.Create("study-a", testCfg()); !errors.Is(err, ErrCollectionExists) {
		t.Fatalf("duplicate create: %v, want ErrCollectionExists", err)
	}
	// Names unique up to letter case too: snapshots become files, and
	// case-insensitive filesystems would collapse "Study-A"/"study-a"
	// into one clobbered snapshot.
	if _, err := reg.Create("STUDY-A", testCfg()); !errors.Is(err, ErrCollectionExists) {
		t.Fatalf("case-variant create: %v, want ErrCollectionExists", err)
	}
	if _, ok := reg.Get("study-b"); ok {
		t.Fatal("Get invented a collection")
	}
	if !reg.Delete("study-a") {
		t.Fatal("Delete missed an existing collection")
	}
	if reg.Delete("study-a") {
		t.Fatal("Delete of a deleted collection reported true")
	}
	// Delete frees the case-folded slot along with the exact name.
	if _, err := reg.Create("STUDY-A", testCfg()); err != nil {
		t.Fatalf("case-variant create after delete: %v", err)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	reg := NewCollectionRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := reg.Create(n, testCfg()); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, c := range reg.Collections() {
		got = append(got, c.Name())
	}
	want := []string{"alpha", "mid", "zeta"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("names %v want %v", got, want)
	}
}

func TestValidateCollectionName(t *testing.T) {
	for _, ok := range []string{"default", "study-a", "A.b_c-9", strings.Repeat("x", 128)} {
		if err := ValidateCollectionName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a b", "ü", "a\x00b", strings.Repeat("x", 129)} {
		if err := ValidateCollectionName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRegistryCreateRejectsBadConfig(t *testing.T) {
	reg := NewCollectionRegistry()
	bad := []CollectionConfig{
		FreqCollectionConfig("NOPE", PrivacyParams{Epsilon: 1, Domain: 8}, 0),
		FreqCollectionConfig(MechanismGRR, PrivacyParams{Epsilon: 0, Domain: 8}, 0),
		FreqCollectionConfig(MechanismGRR, PrivacyParams{Epsilon: 1, Domain: 1}, 0),
		{Config: task.Config{Task: "nope-task", Mechanism: MechanismGRR, Epsilon: 1, Domain: 8}},
	}
	for _, cfg := range bad {
		if _, err := reg.Create("s", cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if len(reg.Collections()) != 0 {
		t.Fatal("failed creates left registry entries behind")
	}
}
