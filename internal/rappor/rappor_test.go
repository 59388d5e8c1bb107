package rappor

import (
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/workload"
)

func testParams() Params {
	p := DefaultParams()
	p.BloomBits = 64
	p.Cohorts = 4
	return p
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{BloomBits: 0, Hashes: 2, Cohorts: 1, P: 0.5, Q: 0.75},
		{BloomBits: 8, Hashes: 0, Cohorts: 1, P: 0.5, Q: 0.75},
		{BloomBits: 8, Hashes: 2, Cohorts: 0, P: 0.5, Q: 0.75},
		{BloomBits: 8, Hashes: 2, Cohorts: 1, F: 1.0, P: 0.5, Q: 0.75},
		{BloomBits: 8, Hashes: 2, Cohorts: 1, P: 0.5, Q: 0.5},
		{BloomBits: 8, Hashes: 2, Cohorts: 1, P: -0.1, Q: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPermanentEpsilon(t *testing.T) {
	p := DefaultParams() // k=2, f=0.5: ε∞ = 4·ln(3)
	want := 4 * math.Log(3)
	if got := p.PermanentEpsilon(); math.Abs(got-want) > 1e-9 {
		t.Errorf("epsilon %v want %v", got, want)
	}
	p.F = 0
	if !math.IsInf(p.PermanentEpsilon(), 1) {
		t.Error("f=0 should give infinite epsilon")
	}
}

func TestClientMemoizesPermanent(t *testing.T) {
	p := testParams()
	c, err := NewClient(p, []byte("secret"), ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	a := c.permanentBits("example.com")
	b := c.permanentBits("example.com")
	if a.String() != b.String() {
		t.Fatal("permanent response changed between calls")
	}
}

func TestPermanentStableAcrossRestart(t *testing.T) {
	// A client rebuilt with the same secret must regenerate identical
	// permanent responses — that is the whole point of keying them.
	p := testParams()
	c1, _ := NewClient(p, []byte("stable-secret"), ldprand.NewSplitMix64(1))
	c2, _ := NewClient(p, []byte("stable-secret"), ldprand.NewSplitMix64(1))
	if c1.cohort != c2.cohort {
		t.Skip("cohorts differ; permanent bits are cohort-specific")
	}
	if c1.permanentBits("v").String() != c2.permanentBits("v").String() {
		t.Fatal("same secret produced different permanent responses")
	}
}

func TestInstantaneousVaries(t *testing.T) {
	p := testParams()
	c, _ := NewClient(p, []byte("s"), ldprand.NewSplitMix64(2))
	r1 := c.Report("x")
	r2 := c.Report("x")
	if r1.Bits.String() == r2.Bits.String() {
		t.Fatal("two instantaneous reports identical — IRR not applied")
	}
}

func TestServerRejectsBadReports(t *testing.T) {
	p := testParams()
	s, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(p, []byte("s"), ldprand.NewSplitMix64(3))
	r := c.Report("x")
	if err := s.Add(r); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := r
	bad.Cohort = p.Cohorts
	if err := s.Add(bad); err == nil {
		t.Error("out-of-range cohort accepted")
	}
	if err := s.Add(Report{Cohort: 0, Bits: nil}); err == nil {
		t.Error("nil bits accepted")
	}
}

func TestEndToEndDecoding(t *testing.T) {
	// The E4 scenario in miniature: skewed URL popularity, decode
	// candidates, check the heavy hitters surface with roughly correct
	// counts.
	p := testParams()
	urls := workload.URLs(20)
	src := ldprand.NewSplitMix64(42)
	zipf := workload.NewZipf(src, 1.5, len(urls))
	truth := make(map[string]int)
	s, _ := NewServer(p)

	const n = 30000
	for i := 0; i < n; i++ {
		c, err := NewClient(p, []byte(fmt.Sprintf("user-%d", i)), src)
		if err != nil {
			t.Fatal(err)
		}
		v := urls[zipf.Next()]
		truth[v]++
		if err := s.Add(c.Report(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Collected() != n {
		t.Fatalf("collected %d want %d", s.Collected(), n)
	}
	est := s.Decode(urls)
	// The most popular URL should be estimated within 30% relative
	// error (RAPPOR decoding is noisy at this small scale).
	top := urls[0]
	if math.Abs(est[top]-float64(truth[top])) > 0.3*float64(truth[top]) {
		t.Errorf("top URL estimate %.0f truth %d", est[top], truth[top])
	}
	// The top-3 from decoding should match the true top-3 as a set.
	decoded := s.TopK(urls, 3)
	want := map[string]bool{urls[0]: true, urls[1]: true, urls[2]: true}
	hits := 0
	for _, d := range decoded {
		if want[d] {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("decoded top-3 %v shares only %d with true top-3", decoded, hits)
	}
}

func TestEstimateBitCountsUnbiased(t *testing.T) {
	// All users report the same value; the estimated bit counts at that
	// value's positions should approach the cohort sizes.
	p := testParams()
	s, _ := NewServer(p)
	src := ldprand.NewSplitMix64(7)
	const n = 20000
	perCohort := make([]int, p.Cohorts)
	for i := 0; i < n; i++ {
		c, _ := NewClient(p, []byte(fmt.Sprintf("u%d", i)), src)
		perCohort[c.cohort]++
		_ = s.Add(c.Report("onlyvalue"))
	}
	bits := s.EstimateBitCounts()
	for ch := 0; ch < p.Cohorts; ch++ {
		positions := p.filter(ch).Positions([]byte("onlyvalue"))
		for _, pos := range positions {
			got := bits[ch][pos]
			want := float64(perCohort[ch])
			if math.Abs(got-want) > 0.25*want+50 {
				t.Errorf("cohort %d bit %d: estimate %.0f want about %.0f", ch, pos, got, want)
			}
		}
	}
}

func TestDecodeEmptyCandidates(t *testing.T) {
	s, _ := NewServer(testParams())
	if got := s.Decode(nil); len(got) != 0 {
		t.Fatalf("decode nil candidates = %v", got)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(testParams(), nil, nil); err == nil {
		t.Error("empty secret accepted")
	}
	bad := testParams()
	bad.BloomBits = 0
	if _, err := NewClient(bad, []byte("s"), nil); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewServer(bad); err == nil {
		t.Error("invalid server params accepted")
	}
}

func TestRidgeSolveRecoveresExact(t *testing.T) {
	// Overdetermined consistent system: x = [[1,0],[0,1],[1,1]], w = (2,3).
	x := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	y := []float64{2, 3, 5}
	w := ridgeSolve(x, y, 1e-9)
	if math.Abs(w[0]-2) > 1e-4 || math.Abs(w[1]-3) > 1e-4 {
		t.Fatalf("solution %v want [2 3]", w)
	}
}

func TestRidgeSolveEmpty(t *testing.T) {
	if w := ridgeSolve(nil, nil, 1); w != nil {
		t.Fatalf("empty solve = %v", w)
	}
}

func TestGaussSolveSingularDoesNotCrash(t *testing.T) {
	// Singular matrix with zero ridge: must not panic or divide by zero.
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{2, 2}
	w := gaussSolve(a, b)
	if len(w) != 2 {
		t.Fatalf("solution length %d", len(w))
	}
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", w)
		}
	}
}

// TestPermanentBitsPinned pins the memoized permanent response of a
// fixed secret, value and cohort to the bytes earlier builds produced.
// A permanent response that changed across an upgrade would hand an
// observer a second one for the same value, so its keyed stream is
// frozen; only the instantaneous response may change how it draws.
func TestPermanentBitsPinned(t *testing.T) {
	c, err := NewClient(DefaultParams(), []byte("fixed-user-secret"), ldprand.NewSplitMix64(9))
	if err != nil {
		t.Fatal(err)
	}
	if c.cohort != 4 {
		t.Fatalf("cohort %d, want 4", c.cohort)
	}
	for value, want := range map[string]string{
		"www.example.com": "80000000183c05140a40a441c133e0803418818c",
		"about:blank":     "80000000a6650050042c0881206401802e828100",
	} {
		packed, err := c.permanentBits(value).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(packed); got != want {
			t.Errorf("permanent bits of %q = %s, want %s", value, got, want)
		}
	}
}
