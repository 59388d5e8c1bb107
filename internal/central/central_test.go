package central

import (
	"math"
	"testing"

	"repro/internal/ldprand"
)

func TestLaplaceUnbiased(t *testing.T) {
	m := NewLaplace(1.0, 1.0, ldprand.NewSplitMix64(1))
	const trials = 100000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += m.Release(10)
	}
	got := sum / trials
	if math.Abs(got-10) > 0.05 {
		t.Errorf("mean release %.3f want about 10", got)
	}
}

func TestLaplaceVarianceMatches(t *testing.T) {
	m := NewLaplace(0.5, 2.0, ldprand.NewSplitMix64(2))
	const trials = 200000
	var sumSq float64
	for i := 0; i < trials; i++ {
		d := m.Release(0)
		sumSq += d * d
	}
	got := sumSq / trials
	want := m.Variance() // 2·(4/0.5... b=4, var=32
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("empirical variance %.2f want %.2f", got, want)
	}
	if want != 32 {
		t.Errorf("analytic variance %v want 32", want)
	}
}

func TestLaplaceScale(t *testing.T) {
	if got := NewLaplace(2, 1, nil).Scale(); got != 0.5 {
		t.Errorf("scale %v want 0.5", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLaplace(0, 1, nil) },
		func() { NewLaplace(1, 0, nil) },
		func() { NewLaplace(math.NaN(), 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
