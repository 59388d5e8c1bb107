package cms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ldprand"
)

func item(i int) []byte { return []byte(fmt.Sprintf("word-%d", i)) }

func cmsParams() Params {
	return Params{Epsilon: 4, Width: 256, Hashes: 16, Seed: 99}
}

func TestParamsValidate(t *testing.T) {
	good := cmsParams()
	if err := good.Validate(false); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(true); err != nil {
		t.Fatal(err) // 256 is a power of two
	}
	bad := good
	bad.Width = 100
	if err := bad.Validate(true); err == nil {
		t.Error("non-power-of-two width accepted for HCMS")
	}
	if err := bad.Validate(false); err != nil {
		t.Error("width 100 should be fine for plain CMS")
	}
	for _, p := range []Params{
		{Epsilon: 0, Width: 16, Hashes: 2},
		{Epsilon: math.Inf(1), Width: 16, Hashes: 2},
		{Epsilon: 1, Width: 1, Hashes: 2},
		{Epsilon: 1, Width: 16, Hashes: 0},
	} {
		if err := p.Validate(false); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
}

func TestCMSReportShape(t *testing.T) {
	p := cmsParams()
	c, err := NewClient(p, ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	r := c.Report(item(0))
	if r.Row < 0 || r.Row >= p.Hashes {
		t.Fatalf("row %d out of range", r.Row)
	}
	if r.Bits.Len() != p.Width {
		t.Fatalf("width %d want %d", r.Bits.Len(), p.Width)
	}
	// The round trip refuses set bits beyond the width.
	packed, err := r.Bits.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bits.UnmarshalBinary(packed); err != nil {
		t.Fatal(err)
	}
}

func TestCMSFlipCalibration(t *testing.T) {
	p := Params{Epsilon: 2, Width: 64, Hashes: 4, Seed: 5}
	c, _ := NewClient(p, ldprand.NewSplitMix64(2))
	// Count how often a known non-position coordinate reads 1: should be
	// the flip probability 1/(1+e^(ε/2)).
	const n = 50000
	ones := 0
	for i := 0; i < n; i++ {
		r := c.Report(item(1))
		pos := p.Position(r.Row, item(1))
		probe := (pos + 1) % p.Width
		if r.Bits.Get(probe) {
			ones++
		}
	}
	got := float64(ones) / n
	want := 1 / (1 + math.Exp(p.Epsilon/2))
	if math.Abs(got-want) > 0.01 {
		t.Errorf("off-position one rate %.4f want %.4f", got, want)
	}
}

func TestHCMSReportShape(t *testing.T) {
	p := cmsParams()
	c, err := NewHadamardClient(p, ldprand.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r := c.Report(item(i))
		if r.Row < 0 || r.Row >= p.Hashes || r.Index < 0 || r.Index >= p.Width {
			t.Fatalf("report out of range: %+v", r)
		}
		if r.Sign != 1 && r.Sign != -1 {
			t.Fatalf("sign %d", r.Sign)
		}
	}
}

func TestConstructorsRejectBadParams(t *testing.T) {
	bad := Params{Epsilon: -1, Width: 16, Hashes: 2}
	if _, err := NewClient(bad, nil); err == nil {
		t.Error("NewClient accepted bad params")
	}
	odd := Params{Epsilon: 1, Width: 100, Hashes: 2}
	if _, err := NewHadamardClient(odd, nil); err == nil {
		t.Error("NewHadamardClient accepted non-power-of-two width")
	}
}
