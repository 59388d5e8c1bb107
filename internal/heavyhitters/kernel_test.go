package heavyhitters

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/ldprand"
)

// TestKernelFoldSupport checks the hoisted, branch-free support fold
// (and the list-based EstimateCounts, which hoists the same way)
// against the definition: one full hashutil.HashIntRange evaluation
// per report and candidate. hashutil's TestKernelIntHasher and golden
// table tie that function to the pre-kernel scalar formula.
func TestKernelFoldSupport(t *testing.T) {
	src := ldprand.NewSplitMix64(0xf01d)
	for _, g := range []int{2, 9, 64} {
		mech := LHMech{epsilon: 1, g: g, p: math.E / (math.E + float64(g) - 1)} // NewLHMech never picks g=2
		for _, c := range []int{2, 63, 64, 65, 1000} {
			candidates := make([]uint64, c)
			for i := range candidates {
				candidates[i] = src.Uint64() >> uint(ldprand.Intn(src, 64))
			}
			sums, want := make([]int64, c), make([]int64, c)
			reports := make([]LHReport, 1+ldprand.Intn(src, 40))
			for i := range reports {
				reports[i] = LHReport{Seed: src.Uint64(), Bucket: ldprand.Intn(src, g)}
				if i%3 == 0 { // a genuine client report, not just a random pair
					reports[i] = mech.Privatize(candidates[ldprand.Intn(src, c)], src)
				}
				mech.FoldSupport(reports[i], candidates, sums)
				for j, cand := range candidates {
					if hashutil.HashIntRange(reports[i].Seed, int(cand), g) == reports[i].Bucket {
						want[j]++
					}
				}
			}
			for j := range want {
				if sums[j] != want[j] {
					t.Fatalf("g=%d c=%d: FoldSupport sum[%d] = %d, definition %d", g, c, j, sums[j], want[j])
				}
			}
			got, ref := mech.EstimateCounts(reports, candidates), mech.EstimateFromSupport(want, len(reports))
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("g=%d c=%d: EstimateCounts[%d] = %v, definition %v", g, c, j, got[j], ref[j])
				}
			}
		}
	}
}

func BenchmarkFoldSupport(b *testing.B) {
	for _, c := range []int{16, 256} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			mech := NewLHMech(2)
			src := ldprand.NewSplitMix64(1)
			candidates := make([]uint64, c)
			for i := range candidates {
				candidates[i] = src.Uint64() >> 16
			}
			reports := make([]LHReport, 256)
			for i := range reports {
				reports[i] = mech.Privatize(candidates[i%c], src)
			}
			sums := make([]int64, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mech.FoldSupport(reports[i%len(reports)], candidates, sums)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c), "ns/cell")
		})
	}
}
