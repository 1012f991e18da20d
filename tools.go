package repro

import (
	"io"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/crossbar"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/nga"
	"repro/internal/snn"
)

// --- Interchange formats ---

// ReadDIMACS parses DIMACS .gr shortest-path input (1-based on disk).
func ReadDIMACS(r io.Reader) (*Graph, error) { return graph.ReadDIMACS(r) }

// WriteDIMACS writes g in DIMACS .gr format with an optional comment.
func WriteDIMACS(w io.Writer, g *Graph, comment string) error {
	return graph.WriteDIMACS(w, g, comment)
}

// WriteDOT renders g in Graphviz DOT syntax, optionally highlighting a
// vertex path.
func WriteDOT(w io.Writer, g *Graph, name string, highlight []int) error {
	return graph.WriteDOT(w, g, name, highlight)
}

// WriteNetlist serializes a spiking network (structure, induced spikes,
// terminals) as plain text.
func WriteNetlist(w io.Writer, n *Network) error { return snn.WriteNetlist(w, n) }

// ReadNetlist parses the WriteNetlist format into a fresh network. The
// parsed structure is statically validated (see Validate) before
// construction; malformed netlists return errors, never panic.
func ReadNetlist(r io.Reader) (*Network, error) { return snn.ReadNetlist(r) }

// --- Static verification (Definition 1-2 invariants, no simulation) ---

// Violation is one static check failure from Validate/LintNetlist.
type Violation = snn.Violation

// NetlistInfo summarizes a parsed netlist for tooling.
type NetlistInfo = snn.NetlistInfo

// Validate statically checks a network against the paper's Definition 1-2
// invariants: finite parameters, decay in [0,1], reset strictly below
// threshold, delays >= 1, in-range synapse endpoints, and reachable
// terminals. An empty result means the network is safe to simulate.
func Validate(n *Network) []Violation { return snn.Validate(n) }

// LintNetlist parses a netlist without building a network, returning its
// summary and every static violation (`spaabench validate` in API form).
func LintNetlist(r io.Reader) (NetlistInfo, []Violation, error) { return snn.LintNetlist(r) }

// LintCircuit verifies a circuit builder's network: Validate plus
// circuit-level hygiene such as isolated (dead) gates.
func LintCircuit(b *CircuitBuilder) []Violation { return circuit.Lint(b) }

// --- Crossover analysis (Table 1's advantage windows, made concrete) ---

// CrossoverK finds the smallest hop bound at which the no-movement k-hop
// row favors the spiking algorithm (the log(nU) = o(k) window).
func CrossoverK(p CostParams, kMax int64) int64 { return cost.CrossoverK(p, kMax) }

// CrossoverL finds the largest path length at which the pseudopolynomial
// SSSP row still favors the spiking algorithm.
func CrossoverL(p CostParams, lMax int64) int64 { return cost.CrossoverL(p, lMax) }

// CrossoverMovementM finds the edge count where the movement-regime
// advantage clears the given factor.
func CrossoverMovementM(p CostParams, factor float64, mMax int64) int64 {
	return cost.CrossoverMovementM(p, factor, mMax)
}

// --- Further spiking primitives and applications ---

// MatVecCircuit is a feed-forward threshold circuit computing y = A·x
// for a hardwired 0/1 matrix (depth O(log n) adder trees).
type MatVecCircuit = circuit.MatVec

// NewMatVecCircuit builds the circuit; rows[i] lists the columns j with
// A_ij = 1.
func NewMatVecCircuit(b *CircuitBuilder, rows [][]int, lambda int) *MatVecCircuit {
	return circuit.NewMatVec(b, rows, lambda)
}

// PageRank runs damped power iteration as an NGA and returns the rank
// vector and the rounds used.
func PageRank(g *Graph, damping, tol float64, maxRounds int) ([]float64, int) {
	return nga.PageRank(g, damping, tol, maxRounds)
}

// SpikingSSSPWithFaults runs the spiking SSSP with each synapse dropped
// independently with probability dropProb, returning the result and the
// surviving topology (distances are exact for the survivor).
func SpikingSSSPWithFaults(g *Graph, src int, dropProb float64, seed int64) (*SSSPResult, *Graph) {
	return core.SSSPWithFaults(g, src, dropProb, seed)
}

// SSSPRasterString renders the spiking SSSP wavefront as an ASCII spike
// raster (rows ordered by distance). It fails when the last spike time
// is above 2^16 steps, too wide to print.
func SSSPRasterString(g *Graph, src int) (string, error) { return harness.SSSPRaster(g, src) }

// --- Crossbar ordering (the §4.4 "better embeddings" remark) ---

// CuthillMcKee computes a reverse Cuthill–McKee numbering of g, the
// bandwidth-reducing ordering used by EmbedOrdered.
func CuthillMcKee(g *Graph) []int { return crossbar.CuthillMcKee(g) }

// GraphBandwidth returns the bandwidth of g under a vertex numbering.
func GraphBandwidth(g *Graph, position []int) int64 { return crossbar.Bandwidth(g, position) }

// --- Multi-chip aggregation (Figure 7 / §2.3) ---

// ChipAssignment maps graph vertices to chips of bounded capacity.
type ChipAssignment = fleet.Assignment

// ChipTraffic reports intra- vs inter-chip spike deliveries.
type ChipTraffic = fleet.Traffic

// PartitionBFS places vertices on chips by locality-preserving BFS growth.
func PartitionBFS(g *Graph, capacity int) *ChipAssignment { return fleet.PartitionBFS(g, capacity) }

// PartitionRoundRobin is the locality-free placement baseline.
func PartitionRoundRobin(g *Graph, capacity int) *ChipAssignment {
	return fleet.PartitionRoundRobin(g, capacity)
}

// AnalyzeSSSPTraffic accounts a spiking SSSP run's deliveries under a
// chip assignment.
func AnalyzeSSSPTraffic(g *Graph, a *ChipAssignment, dist []int64) *ChipTraffic {
	return fleet.AnalyzeSSSP(g, a, dist)
}
