// Package workload generates the synthetic datasets that stand in for
// the proprietary data of the deployed systems (see the substitution
// table in DESIGN.md): Zipf-distributed categorical values for URL and
// word frequencies, bounded numeric values for telemetry counters,
// planar Gaussian mixtures for locations, multidimensional binary
// records for marginals, and random graphs for the graph experiments.
package workload

import (
	"fmt"
	"math"

	"repro/internal/ldprand"
)

// Zipf samples integers in [0, n) with P(k) proportional to
// 1/(k+1)^s, the standard model for URL/word popularity. It uses
// Chakraborty-style inverse-CDF sampling over a precomputed table,
// which is exact and fast for the domain sizes used here.
type Zipf struct {
	cdf []float64
	src ldprand.Source
}

// NewZipf returns a Zipf(s) sampler over [0, n). It panics if n < 1 or
// s < 0.
func NewZipf(src ldprand.Source, s float64, n int) *Zipf {
	if n < 1 {
		panic("workload: Zipf needs n >= 1")
	}
	if s < 0 || math.IsNaN(s) {
		panic("workload: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next draws one sample.
func (z *Zipf) Next() int {
	u := ldprand.Float64(z.src)
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical draws values from an explicit distribution.
type Categorical struct {
	cdf []float64
	src ldprand.Source
}

// NewCategorical returns a sampler over the given (unnormalized,
// non-negative) weights. It panics if all weights are zero or any is
// negative.
func NewCategorical(src ldprand.Source, weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("workload: empty weights")
	}
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("workload: negative weight %v at %d", w, i))
		}
		total += w
		cdf[i] = total
	}
	if total == 0 {
		panic("workload: all weights zero")
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Categorical{cdf: cdf, src: src}
}

// Next draws one sample.
func (c *Categorical) Next() int {
	u := ldprand.Float64(c.src)
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// URLs returns a deterministic pool of n URL-like strings standing in
// for the browsing destinations RAPPOR collects.
func URLs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("www.site-%04d.example.com", i)
	}
	return out
}

// Words returns a deterministic pool of n word-like strings standing in
// for Apple's new-words discovery dictionary.
func Words(n int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	out := make([]string, n)
	for i := range out {
		// Base-26 expansion, fixed width 6 so prefixes are informative.
		buf := make([]byte, 6)
		x := i
		for j := 5; j >= 0; j-- {
			buf[j] = letters[x%26]
			x /= 26
		}
		out[i] = string(buf)
	}
	return out
}

// Point is a location in the unit square.
type Point struct{ X, Y float64 }

// GaussianCluster describes one population center for location data.
type GaussianCluster struct {
	Center Point
	Sigma  float64
	Weight float64
}

// Locations samples n points from a mixture of Gaussian clusters,
// clamped to the unit square — the stand-in for user location traces.
func Locations(src ldprand.Source, clusters []GaussianCluster, n int) []Point {
	if len(clusters) == 0 {
		panic("workload: no clusters")
	}
	weights := make([]float64, len(clusters))
	for i, c := range clusters {
		weights[i] = c.Weight
	}
	pick := NewCategorical(src, weights)
	out := make([]Point, n)
	for i := range out {
		c := clusters[pick.Next()]
		x := c.Center.X + c.Sigma*ldprand.Normal(src)
		y := c.Center.Y + c.Sigma*ldprand.Normal(src)
		out[i] = Point{X: clamp01(x), Y: clamp01(y)}
	}
	return out
}

// DefaultCityClusters returns a plausible three-hotspot city layout
// used by E8 and the location example.
func DefaultCityClusters() []GaussianCluster {
	return []GaussianCluster{
		{Center: Point{0.25, 0.25}, Sigma: 0.05, Weight: 0.5},
		{Center: Point{0.7, 0.6}, Sigma: 0.08, Weight: 0.3},
		{Center: Point{0.5, 0.85}, Sigma: 0.04, Weight: 0.2},
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// BinaryRecords samples n records of d binary attributes where each
// attribute j is 1 with probability probs[j], independently — the
// ground-truth model for the marginal-release experiment. Each record
// is encoded as a d-bit integer (attribute j is bit j).
func BinaryRecords(src ldprand.Source, probs []float64, n int) []int {
	out := make([]int, n)
	for i := range out {
		rec := 0
		for j, p := range probs {
			if ldprand.Bernoulli(src, p) {
				rec |= 1 << uint(j)
			}
		}
		out[i] = rec
	}
	return out
}

// CorrelatedBinaryRecords samples records where attribute j+1 copies
// attribute j with probability corr, making low-order marginals
// informative (the regime where Fourier reconstruction shines).
func CorrelatedBinaryRecords(src ldprand.Source, d int, base, corr float64, n int) []int {
	out := make([]int, n)
	for i := range out {
		rec := 0
		prev := ldprand.Bernoulli(src, base)
		if prev {
			rec |= 1
		}
		for j := 1; j < d; j++ {
			var bit bool
			if ldprand.Bernoulli(src, corr) {
				bit = prev
			} else {
				bit = ldprand.Bernoulli(src, base)
			}
			if bit {
				rec |= 1 << uint(j)
			}
			prev = bit
		}
		out[i] = rec
	}
	return out
}

// Counters samples n per-user numeric values in [0, max], beta-shaped
// toward low usage — the stand-in for Microsoft's app-usage counters.
func Counters(src ldprand.Source, max float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Square a uniform to skew mass toward zero.
		u := ldprand.Float64(src)
		out[i] = u * u * max
	}
	return out
}

// DriftingCounters returns a matrix [round][user] of counters where
// each user's value drifts slightly between rounds, exercising the
// repeated-collection experiment (E7).
func DriftingCounters(src ldprand.Source, max float64, users, rounds int, drift float64) [][]float64 {
	cur := Counters(src, max, users)
	out := make([][]float64, rounds)
	for r := 0; r < rounds; r++ {
		snap := make([]float64, users)
		copy(snap, cur)
		out[r] = snap
		for u := range cur {
			cur[u] += drift * max * (ldprand.Float64(src) - 0.5)
			if cur[u] < 0 {
				cur[u] = 0
			}
			if cur[u] > max {
				cur[u] = max
			}
		}
	}
	return out
}

// Graph is an undirected simple graph on vertices 0..N-1 stored as
// adjacency sets.
type Graph struct {
	N   int
	Adj []map[int]bool
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	return &Graph{N: n, Adj: adj}
}

// AddEdge inserts the undirected edge (u, v); self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.Adj[u][v] = true
	g.Adj[v][u] = true
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// Degrees returns the degree sequence.
func (g *Graph) Degrees() []int {
	out := make([]int, g.N)
	for i := range out {
		out[i] = g.Degree(i)
	}
	return out
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for i := range g.Adj {
		total += len(g.Adj[i])
	}
	return total / 2
}

// ClusteringCoefficient returns the global clustering coefficient
// (3×triangles / open wedges), 0 for degenerate graphs.
func (g *Graph) ClusteringCoefficient() float64 {
	var triangles, wedges float64
	for v := 0; v < g.N; v++ {
		neigh := make([]int, 0, len(g.Adj[v]))
		for u := range g.Adj[v] {
			neigh = append(neigh, u)
		}
		dv := len(neigh)
		wedges += float64(dv*(dv-1)) / 2
		for i := 0; i < dv; i++ {
			for j := i + 1; j < dv; j++ {
				if g.Adj[neigh[i]][neigh[j]] {
					triangles++
				}
			}
		}
	}
	if wedges == 0 {
		return 0
	}
	// Each triangle is counted once per corner (3 times).
	return triangles / wedges
}

// BarabasiAlbert grows a preferential-attachment graph where each new
// vertex attaches to m existing vertices, producing the heavy-tailed
// degree sequences typical of social graphs.
func BarabasiAlbert(src ldprand.Source, n, m int) *Graph {
	if m < 1 || n <= m {
		panic("workload: BA needs n > m >= 1")
	}
	g := NewGraph(n)
	// Repeated-endpoint list drives preferential attachment.
	endpoints := make([]int, 0, 2*n*m)
	for v := 0; v < m; v++ {
		g.AddEdge(v, (v+1)%m)
		endpoints = append(endpoints, v, (v+1)%m)
	}
	if m == 1 {
		endpoints = append(endpoints, 0)
	}
	for v := m; v < n; v++ {
		chosen := make(map[int]bool)
		for len(chosen) < m {
			t := endpoints[ldprand.Intn(src, len(endpoints))]
			if t != v {
				chosen[t] = true
			}
		}
		for t := range chosen {
			g.AddEdge(v, t)
			endpoints = append(endpoints, v, t)
		}
	}
	return g
}
