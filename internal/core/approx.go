package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// ApproxResult reports the (1+o(1))-approximate k-hop distances of the
// Section 7 algorithm and its costs.
//
// Guarantee (the bicriteria sandwich of Nanongkai's hop reduction, which
// is what the Theorem 7.1 procedure yields when dist^{ℓ_i} is the
// time-truncated unrestricted distance): with h = ⌈(1+2/ε)k⌉,
//
//	dist_h(v) <= Dist[v] <= (1+ε)·dist_k(v).
//
// The upper bound is the headline (1+o(1)) approximation of dist_k; the
// lower bound certifies that every estimate is witnessed by a real path
// of at most h hops (h/k = 1+o(1) for ε = 1/log n).
type ApproxResult struct {
	// Dist[v] is the approximation of dist_k(v); graph.Inf when no scale
	// certified a bound.
	Dist []float64
	// HopSlack is h = ⌈(1+2/ε)k⌉, the hop bound of the lower-bound
	// witness paths.
	HopSlack int
	// Epsilon = 1/log2(n), the paper's choice.
	Epsilon float64
	// Scales is the number of rounding scales i executed:
	// O(log(kU log n)).
	Scales int
	// SpikeTime sums the truncated spiking SSSP runs: the
	// O((k log n + m) log(kU log n)) term of Theorem 7.2 (without the
	// O(m) load, reported separately).
	SpikeTime int64
	// LoadTime is the O(m) graph-loading charge (incurred once; the
	// re-weightings reuse the embedded topology, Section 4.4).
	LoadTime int64
	// NeuronCount: n relay neurons per scale, O(n log(kU log n)) total —
	// the neuron advantage over the exact algorithm that Section 7
	// highlights.
	NeuronCount int64
}

// ApproxKHop runs the spiking (1+o(1))-approximation for k-hop SSSP
// (Theorem 7.2, adapting Nanongkai's CONGEST algorithm). For each scale
// i with D_i = 2^i, edge lengths are rounded to
// ℓ_i(uv) = ceil(2k·ℓ(uv)/(ε·D_i)) and the pseudopolynomial spiking SSSP
// of Section 3 runs on the re-weighted graph, truncated at time
// (1+2/ε)·k. Scale i certifies the estimate (ε·D_i/2k)·dist^{ℓ_i}(v) for
// every v whose rounded distance met the truncation bound; the final
// answer is the minimum certified estimate.
//
// ε defaults to 1/log2 n per the paper; pass eps <= 0 to use the default.
func ApproxKHop(g *graph.Graph, src, k int, eps float64) *ApproxResult {
	n := g.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
	}
	if k < 1 {
		panic(fmt.Sprintf("core: hop bound %d < 1", k))
	}
	if g.M() > 0 && g.MinLen() < 1 {
		panic("core: ApproxKHop requires edge lengths >= 1")
	}
	if eps <= 0 {
		eps = 1.0 / math.Log2(math.Max(float64(n), 4))
	}

	u := float64(maxInt64(g.MaxLen(), 1))
	// Scales 0..ceil(log2(2kU/eps)): beyond that every rounded length is 1.
	maxScale := int(math.Ceil(math.Log2(2*float64(k)*u/eps))) + 1
	if maxScale < 1 {
		maxScale = 1
	}
	cutoff := int64(math.Ceil((1 + 2/eps) * float64(k)))

	res := &ApproxResult{
		Dist:     make([]float64, n),
		HopSlack: int(cutoff),
		Epsilon:  eps,
		Scales:   maxScale + 1,
		LoadTime: int64(g.M() + n),
	}
	for v := range res.Dist {
		res.Dist[v] = math.Inf(1)
	}
	res.Dist[src] = 0

	for i := 0; i <= maxScale; i++ {
		di := math.Pow(2, float64(i))
		scaled := g.Map(func(l int64) int64 {
			return int64(math.Ceil(2 * float64(k) * float64(l) / (eps * di)))
		})
		// Truncated pseudopolynomial spiking SSSP: relay network with
		// delays ℓ_i, halted at the cutoff time.
		dist := truncatedSpikingSSSP(scaled, src, cutoff, res)
		factor := eps * di / (2 * float64(k))
		for v := 0; v < n; v++ {
			if dist[v] > cutoff || dist[v] < 0 {
				continue // not certified at this scale
			}
			if est := factor * float64(dist[v]); est < res.Dist[v] {
				res.Dist[v] = est
			}
		}
		res.NeuronCount += int64(n)
	}
	for v := 0; v < n; v++ {
		if math.IsInf(res.Dist[v], 1) {
			res.Dist[v] = float64(graph.Inf)
		}
	}
	return res
}

// truncatedSpikingSSSP runs the Section 3 relay network on g but halts at
// maxTime, returning first-spike times (-1 where none). It accumulates
// SpikeTime into res.
func truncatedSpikingSSSP(g *graph.Graph, src int, maxTime int64, res *ApproxResult) []int64 {
	n := g.N()
	// Reuse SSSP's construction but with a deadline; build inline to
	// control the horizon.
	net := newRelayNetwork(g)
	net.net.InduceSpike(src, 0)
	net.net.Run(maxTime)
	dist := make([]int64, n)
	var last int64
	for v := 0; v < n; v++ {
		dist[v] = net.net.FirstSpike(v)
		if dist[v] > last {
			last = dist[v]
		}
	}
	res.SpikeTime += last
	return dist
}
