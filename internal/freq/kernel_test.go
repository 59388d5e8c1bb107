package freq

// Fold kernels against their definitions. The hashing half of the
// definition is hashutil.HashIntRange, which hashutil's own
// TestKernelIntHasher and golden table tie to the pre-kernel scalar
// formula; what these tests add is that the hoisted, branch-free,
// allocation-free loops accumulate exactly what the one-cell-at-a-time
// loops they replaced did.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hashutil"
	"repro/internal/ldprand"
)

func TestKernelLHAggregate(t *testing.T) {
	src := ldprand.NewSplitMix64(0x1f01d)
	for _, g := range []int{2, 9, 64} {
		for _, d := range []int{2, 63, 64, 65, 1000} {
			l := NewLH(1, d, g, src)
			want := make([]float64, d)
			n := 1 + ldprand.Intn(src, 40)
			for i := 0; i < n; i++ {
				r := LHReport{Seed: src.Uint64(), Bucket: ldprand.Intn(src, g)}
				if i%3 == 0 { // a genuine client report, not just a random pair
					r = l.Privatize(ldprand.Intn(src, d))
				}
				l.Aggregate(r)
				for v := 0; v < d; v++ {
					if hashutil.HashIntRange(r.Seed, v, g) == r.Bucket {
						want[v]++
					}
				}
			}
			got := make([]float64, d)
			for v, s := range l.tally.Cells {
				got[v] = float64(s)
			}
			if !reflect.DeepEqual(got, want) || l.Collected() != n {
				t.Fatalf("g=%d d=%d: kernel support differs from the scalar definition", g, d)
			}
		}
	}
}

// TestKernelBitTallies checks the non-allocating set-bit walk in
// UE.Aggregate and THE.Aggregate against the Ones() index slice it
// replaced, across the word-boundary lengths.
func TestKernelBitTallies(t *testing.T) {
	src := ldprand.NewSplitMix64(0xb175)
	for _, d := range []int{2, 63, 64, 65, 1000, 1024} {
		ue := NewOUE(1, d, src)
		the := NewTHE(1, d, src)
		want := make([]int64, d)
		for i := 0; i < 20; i++ {
			report := bitvec.New(d)
			for b := 0; b < d; b++ {
				if src.Uint64()&3 == 0 || b == d-1 && i == 0 {
					report.Set(b)
				}
			}
			ue.Aggregate(report)
			the.Aggregate(report)
			for _, b := range report.Ones() {
				want[b]++
			}
		}
		if !reflect.DeepEqual(ue.tally.Cells, want) || !reflect.DeepEqual(the.tally.Cells, want) {
			t.Fatalf("d=%d: bit-walk tallies differ from the Ones() reference", d)
		}
	}
}

// TestFoldAllocs pins the aggregate loops at zero allocations per
// report: the OLH fold touches only its tallies, and the unary
// encodings walk the report's words in place.
func TestFoldAllocs(t *testing.T) {
	src := ldprand.NewSplitMix64(7)
	const d = 1024
	olh := NewOLH(2, d, src)
	lhReport := olh.Privatize(3)
	ue := NewOUE(2, d, src)
	the := NewTHE(2, d, src)
	ueReport := ue.Privatize(3)
	theReport := the.Privatize(3)
	for name, fold := range map[string]func(){
		"LH.Aggregate":  func() { olh.Aggregate(lhReport) },
		"UE.Aggregate":  func() { ue.Aggregate(ueReport) },
		"THE.Aggregate": func() { the.Aggregate(theReport) },
	} {
		if allocs := testing.AllocsPerRun(100, fold); allocs != 0 {
			t.Errorf("%s: %v allocs per report, want 0", name, allocs)
		}
	}
}

func BenchmarkLHAggregate(b *testing.B) {
	for _, d := range []int{64, 1024} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			src := ldprand.NewSplitMix64(1)
			o := NewOLH(2, d, src)
			reports := make([]LHReport, 256)
			for i := range reports {
				reports[i] = o.Privatize(i % d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Aggregate(reports[i%len(reports)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/cell")
		})
	}
}

func BenchmarkUEAggregate(b *testing.B) {
	for _, d := range []int{64, 1024} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			src := ldprand.NewSplitMix64(1)
			o := NewOUE(2, d, src)
			reports := make([]*bitvec.Vector, 256)
			for i := range reports {
				reports[i] = o.Privatize(i % d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Aggregate(reports[i%len(reports)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/cell")
		})
	}
}
