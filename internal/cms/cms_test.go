package cms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/workload"
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
	if len(r.Bits) != p.Width {
		t.Fatalf("width %d want %d", len(r.Bits), p.Width)
	}
	for _, b := range r.Bits {
		if b != 0 && b != 1 {
			t.Fatalf("bit value %d", b)
		}
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
		pos := p.position(r.Row, item(1))
		probe := (pos + 1) % p.Width
		if r.Bits[probe] == 1 {
			ones++
		}
	}
	got := float64(ones) / n
	want := 1 / (1 + math.Exp(p.Epsilon/2))
	if math.Abs(got-want) > 0.01 {
		t.Errorf("off-position one rate %.4f want %.4f", got, want)
	}
}

func TestCMSEndToEndAccuracy(t *testing.T) {
	p := cmsParams()
	client, _ := NewClient(p, ldprand.NewSplitMix64(3))
	server, _ := NewServer(p)
	const n, heavy = 30000, 0.3
	words := workload.Words(50)
	src := ldprand.NewSplitMix64(4)
	truth := make(map[string]int)
	for i := 0; i < n; i++ {
		var w string
		if ldprand.Bernoulli(src, heavy) {
			w = words[0]
		} else {
			w = words[1+ldprand.Intn(src, len(words)-1)]
		}
		truth[w]++
		if err := server.Add(client.Report([]byte(w))); err != nil {
			t.Fatal(err)
		}
	}
	if server.Collected() != n {
		t.Fatalf("collected %d", server.Collected())
	}
	got := server.Estimate([]byte(words[0]))
	want := float64(truth[words[0]])
	tol := 4*math.Sqrt(server.TheoreticalVariance(n)) + 0.02*float64(n)
	if math.Abs(got-want) > tol {
		t.Errorf("heavy word estimate %.0f want %.0f (tol %.0f)", got, want, tol)
	}
	// An absent word should estimate near zero.
	absent := server.Estimate([]byte("zzzzzz"))
	if math.Abs(absent) > tol {
		t.Errorf("absent word estimate %.0f want about 0", absent)
	}
}

func TestCMSServerRejectsBadReports(t *testing.T) {
	p := cmsParams()
	s, _ := NewServer(p)
	if err := s.Add(Report{Row: -1, Bits: make([]byte, p.Width)}); err == nil {
		t.Error("negative row accepted")
	}
	if err := s.Add(Report{Row: 0, Bits: make([]byte, 3)}); err == nil {
		t.Error("short report accepted")
	}
	bad := Report{Row: 0, Bits: make([]byte, p.Width)}
	bad.Bits[0] = 7
	if err := s.Add(bad); err == nil {
		t.Error("non-binary bit accepted")
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

func TestHCMSEndToEndAccuracy(t *testing.T) {
	p := Params{Epsilon: 4, Width: 128, Hashes: 8, Seed: 11}
	client, _ := NewHadamardClient(p, ldprand.NewSplitMix64(6))
	server, _ := NewHadamardServer(p)
	const n = 60000
	words := workload.Words(30)
	src := ldprand.NewSplitMix64(7)
	truth := make(map[string]int)
	for i := 0; i < n; i++ {
		var w string
		if ldprand.Bernoulli(src, 0.4) {
			w = words[0]
		} else {
			w = words[1+ldprand.Intn(src, len(words)-1)]
		}
		truth[w]++
		if err := server.Add(client.Report([]byte(w))); err != nil {
			t.Fatal(err)
		}
	}
	got := server.Estimate([]byte(words[0]))
	want := float64(truth[words[0]])
	tol := 4*math.Sqrt(server.TheoreticalVariance(n)) + 0.02*float64(n)
	if math.Abs(got-want) > tol {
		t.Errorf("estimate %.0f want %.0f (tol %.0f)", got, want, tol)
	}
}

func TestHCMSServerRejectsBadReports(t *testing.T) {
	p := cmsParams()
	s, _ := NewHadamardServer(p)
	for _, r := range []HadamardReport{
		{Row: -1, Index: 0, Sign: 1},
		{Row: 0, Index: p.Width, Sign: 1},
		{Row: 0, Index: 0, Sign: 0},
	} {
		if err := s.Add(r); err == nil {
			t.Errorf("bad report accepted: %+v", r)
		}
	}
}

func TestHCMSOneBit(t *testing.T) {
	s, _ := NewHadamardServer(cmsParams())
	if s.ReportBits() != 1 {
		t.Fatalf("HCMS payload %d bits, want 1", s.ReportBits())
	}
	cs, _ := NewServer(cmsParams())
	if cs.ReportBits() != cmsParams().Width {
		t.Fatalf("CMS payload %d bits, want %d", cs.ReportBits(), cmsParams().Width)
	}
}

func TestConstructorsRejectBadParams(t *testing.T) {
	bad := Params{Epsilon: -1, Width: 16, Hashes: 2}
	if _, err := NewClient(bad, nil); err == nil {
		t.Error("NewClient accepted bad params")
	}
	if _, err := NewServer(bad); err == nil {
		t.Error("NewServer accepted bad params")
	}
	odd := Params{Epsilon: 1, Width: 100, Hashes: 2}
	if _, err := NewHadamardClient(odd, nil); err == nil {
		t.Error("NewHadamardClient accepted non-power-of-two width")
	}
	if _, err := NewHadamardServer(odd); err == nil {
		t.Error("NewHadamardServer accepted non-power-of-two width")
	}
}
