// Package repro is a Go reproduction of "Provable Advantages for Graph
// Algorithms in Spiking Neural Networks" (Aimone, Ho, Parekh, Phillips,
// Pinar, Severa, Wang — SPAA 2021).
//
// The package is a facade over the implementation packages:
//
//   - a discrete-time leaky-integrate-and-fire SNN simulator (Defs 1-3),
//   - threshold-gate circuits: max, min, adders, decrement, latch, delay
//     gadget (Section 5, Figures 1/3/4/5, Table 2),
//   - the spiking shortest-path algorithms: pseudopolynomial SSSP
//     (Section 3), k-hop TTL and polynomial k-hop (Section 4), and the
//     (1+o(1))-approximation (Section 7) — plus a version of the k-hop
//     algorithm compiled all the way down to threshold gates,
//   - the crossbar (stacked grid) host topology and graph embedding
//     (Section 4.4, Figure 2),
//   - the DISTANCE data-movement machine and movement-instrumented
//     conventional algorithms with the Theorem 6.1/6.2 lower bounds,
//   - conventional baselines (Dijkstra, k-hop Bellman-Ford),
//   - the Table 1 cost model and the Table 3 platform survey,
//   - an experiment harness regenerating every table and figure.
//
// # Quick start
//
//	g := repro.RandomGraph(256, 1024, repro.Uniform(8), 1)
//	spiking := repro.SpikingSSSP(g, 0, -1)   // runs on the LIF simulator
//	reference := repro.Dijkstra(g, 0)
//	// spiking.Dist == reference.Dist; spiking.SpikeTime == max distance L
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-versus-measured record.
package repro

import (
	"io"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/graph"
)

// Inf is the distance value reported for unreachable vertices.
const Inf = graph.Inf

// Graph is a directed multigraph with nonnegative integer edge lengths;
// it is both the shortest-path input and the synaptic topology model.
type Graph = graph.Graph

// Edge is a directed edge with a length.
type Edge = graph.Edge

// LengthDist describes how generators draw edge lengths.
type LengthDist = graph.LengthDist

// Unit is the all-ones edge-length distribution.
var Unit = graph.Unit

// Uniform returns a length distribution uniform on [1, max]; max is the
// paper's U parameter.
func Uniform(max int64) LengthDist { return graph.Uniform(max) }

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// RandomGraph returns a connected random graph with n vertices and at
// least m edges (an arborescence from vertex 0 is embedded first).
func RandomGraph(n, m int, dist LengthDist, seed int64) *Graph {
	return graph.RandomGnm(n, m, dist, seed, true)
}

// GridGraph returns a bidirectional rows×cols lattice.
func GridGraph(rows, cols int, dist LengthDist, seed int64) *Graph {
	return graph.Grid(rows, cols, dist, seed)
}

// RingGraph returns the directed n-cycle.
func RingGraph(n int, dist LengthDist, seed int64) *Graph {
	return graph.Ring(n, dist, seed)
}

// PathGraph returns the directed n-path.
func PathGraph(n int, dist LengthDist, seed int64) *Graph {
	return graph.Path(n, dist, seed)
}

// CompleteGraph returns the complete directed graph K_n.
func CompleteGraph(n int, dist LengthDist, seed int64) *Graph {
	return graph.Complete(n, dist, seed)
}

// LayeredGraph returns a layered DAG where every source-sink path has
// exactly layers+1 edges — the workload where hop bounds bind tightly.
func LayeredGraph(layers, width int, dist LengthDist, seed int64) *Graph {
	return graph.Layered(layers, width, dist, seed)
}

// ScaleFreeGraph returns a preferential-attachment graph.
func ScaleFreeGraph(n, deg int, dist LengthDist, seed int64) *Graph {
	return graph.PreferentialAttachment(n, deg, dist, seed)
}

// ReadGraph parses the edge-list format of WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g as "n m" followed by "u v len" lines.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// --- Conventional baselines ---

// DijkstraResult carries distances, the shortest-path tree, and operation
// counts from a conventional Dijkstra run.
type DijkstraResult = classic.DijkstraResult

// Dijkstra runs binary-heap Dijkstra from src — the O(m + n log n)
// baseline of Table 1.
func Dijkstra(g *Graph, src int) *DijkstraResult { return classic.Dijkstra(g, src) }

// BFResult carries hop-bounded distances and relaxation counts.
type BFResult = classic.BFResult

// BellmanFordKHop computes dist_k(v) for all v in k relaxation rounds —
// the O(km) baseline of Section 6.2. earlyExit stops on convergence.
func BellmanFordKHop(g *Graph, src, k int, earlyExit bool) *BFResult {
	return classic.BellmanFordKHop(g, src, k, earlyExit)
}

// KHopPath returns an optimal at-most-k-edge path from src to dst and its
// length (nil, Inf if none exists).
func KHopPath(g *Graph, src, dst, k int) ([]int, int64) {
	return classic.KHopPath(g, src, dst, k)
}

// --- Spiking algorithms ---

// SSSPResult reports distances, latched predecessors, and the paper's
// cost measures for the spiking SSSP algorithm.
type SSSPResult = core.SSSPResult

// SpikingSSSP runs the pseudopolynomial spiking SSSP of Section 3 on the
// LIF simulator: synapse delays encode edge lengths and first-spike times
// are exactly the distances. dst >= 0 installs a terminal neuron that
// halts the run; dst = -1 computes all distances. Edge lengths must be
// >= 1. Fault-free runs cannot time out, so the wrapper panics on the
// impossible error; fault campaigns run a core.BuildSSSP netlist through
// faults.Run instead.
func SpikingSSSP(g *Graph, src, dst int) *SSSPResult {
	r, err := core.SSSP(g, src, dst)
	if err != nil {
		panic(err)
	}
	return r
}

// TTLResult reports distances and costs of the k-hop TTL algorithm.
type TTLResult = core.TTLResult

// SpikingKHopSSSP runs the pseudopolynomial k-hop algorithm of Section
// 4.1 (TTL messages, max and decrement circuits) as an exact
// message-level simulation. Use Result.Path for hop-valid paths.
func SpikingKHopSSSP(g *Graph, src, dst, k int) *TTLResult {
	return core.KHopTTL(g, src, dst, k)
}

// PolyResult reports distances and costs of the polynomial algorithms.
type PolyResult = core.PolyResult

// SpikingKHopPoly runs the polynomial-time k-hop algorithm of Section
// 4.2 (synchronized rounds of add-length / min circuits).
func SpikingKHopPoly(g *Graph, src, k int) *PolyResult { return core.KHopPoly(g, src, k) }

// SpikingSSSPPoly runs the polynomial-time unrestricted SSSP variant
// (Theorem 4.4).
func SpikingSSSPPoly(g *Graph, src int) *PolyResult { return core.SSSPPoly(g, src) }

// ApproxResult reports the (1+o(1))-approximate distances of Section 7.
type ApproxResult = core.ApproxResult

// SpikingApproxKHop runs the Section 7 approximation: truncated spiking
// SSSP over O(log(kU log n)) rounding scales. eps <= 0 selects the
// paper's ε = 1/log2 n.
func SpikingApproxKHop(g *Graph, src, k int, eps float64) *ApproxResult {
	return core.ApproxKHop(g, src, k, eps)
}

// CompiledTTL is the k-hop algorithm compiled down to threshold gates.
type CompiledTTL = core.CompiledTTL

// CompileKHopSSSP builds the gate-level spiking network for the k-hop
// TTL algorithm: per-node max and decrement circuits, per-edge delayed
// synapse bundles. Run it with its Run method.
func CompileKHopSSSP(g *Graph, src, k int) *CompiledTTL { return core.CompileKHopTTL(g, src, k) }

// --- Crossbar ---

// Crossbar is the stacked-grid host topology H_n of Section 4.4.
type Crossbar = crossbar.Crossbar

// NewCrossbar builds H_n with all programmable (type-2) edges disabled.
func NewCrossbar(n int) *Crossbar { return crossbar.New(n) }
