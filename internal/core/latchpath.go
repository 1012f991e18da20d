package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/snn"
)

// LatchSSSP is the Section 3 path-construction mechanism realized in
// gates: alongside the delay-coded SSSP wavefront, every node broadcasts
// a binary encoding of its ID with each spike, and every node latches the
// ID delivered by its first incoming spike ("Each node needs to remember
// a neighbor that sends the first spike... it sends a binary encoding of
// its ID to its neighbors, and latches the ID").
//
// Construction, per vertex v:
//
//   - relay_v: the fire-once wavefront neuron of the plain SSSP network;
//   - idline_{v,j} (⌈log₂ n⌉ neurons): fires at time t iff some neighbor
//     u whose ID has bit j set spiked ℓ(uv) earlier — u's relay is wired
//     straight into the line with the edge's delay, so the ID message
//     travels with the wavefront;
//   - gate_{v,j}: an AND of relay_v and idline_{v,j}; because relay_v
//     fires exactly once (inhibitory self-loop), the gate opens only at
//     the first arrival;
//   - store_{v,j}: a no-leak neuron with an unreachable threshold that
//     holds the gated bit as standing voltage — the "neurons with no
//     leakage ... to preserve state" alternative of Section 2.2 (cheaper
//     to simulate than the self-firing latch of Figure 1B, which the
//     circuit package also provides).
//
// When several shortest paths deliver spikes at exactly the same step,
// each sender is individually a valid predecessor, but their IDs OR
// together on the lines; the decoder detects the (rare, tie-only) case of
// a merged ID that matches no valid predecessor and reports it.
type LatchSSSP struct {
	// Dist and tie-validated predecessor IDs.
	Dist []int64
	// Pred[v] is the decoded predecessor, or -1 if v is the source,
	// unreached, or its latched ID was a tie-merge that decodes to no
	// valid predecessor (Merged[v] reports the latter).
	Pred []int
	// Merged[v] is true when the latched ID decoded to something that is
	// not a valid predecessor (simultaneous-tie artifact).
	Merged []bool
	// Neurons and Synapses size the constructed network: n·(1+3⌈log n⌉)
	// neurons — the O(log n)-factor memory cost of Section 3.
	Neurons, Synapses int
	src               int
}

// SSSPWithLatches runs the gate-level SSSP-with-path-construction network.
// Edge lengths must be >= 1.
func SSSPWithLatches(g *graph.Graph, src int) *LatchSSSP {
	n := g.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
	}
	if g.M() > 0 && g.MinLen() < 1 {
		panic("core: SSSPWithLatches requires edge lengths >= 1")
	}
	lid := bits.Len(uint(n - 1))
	if lid == 0 {
		lid = 1
	}

	net := snn.NewNetwork(snn.Config{Rule: snn.FireGTE})
	relay := make([]int, n)
	for v := 0; v < n; v++ {
		relay[v] = net.AddNeuron(snn.Integrator(1))
	}
	for v := 0; v < n; v++ {
		net.Connect(relay[v], relay[v], -float64(g.InDeg(v)+1), 1)
	}

	idline := make([][]int, n)
	gate := make([][]int, n)
	store := make([][]int, n)
	for v := 0; v < n; v++ {
		idline[v] = net.AddNeurons(lid, snn.Gate(1))
		gate[v] = net.AddNeurons(lid, snn.Gate(2))
		store[v] = make([]int, lid)
		for j := 0; j < lid; j++ {
			// Threshold 3 is unreachable: the gate fires at most once.
			store[v][j] = net.AddNeuron(snn.Integrator(3))
			net.Connect(relay[v], gate[v][j], 1, 1)
			net.Connect(idline[v][j], gate[v][j], 1, 1)
			net.Connect(gate[v][j], store[v][j], 1, 1)
		}
	}
	for _, e := range g.Edges() {
		net.Connect(relay[e.From], relay[e.To], 1, e.Len)
		for j := 0; j < lid; j++ {
			if e.From&(1<<uint(j)) != 0 {
				net.Connect(relay[e.From], idline[e.To][j], 1, e.Len)
			}
		}
	}

	net.InduceSpike(relay[src], 0)
	net.Run(RelayHorizon(g.N(), g.MaxLen()) + 2) // +2 for the gate/store tail

	res := &LatchSSSP{
		Dist:     make([]int64, n),
		Pred:     make([]int, n),
		Merged:   make([]bool, n),
		Neurons:  net.N(),
		Synapses: net.Synapses(),
		src:      src,
	}
	for v := 0; v < n; v++ {
		res.Pred[v] = -1
		res.Dist[v] = graph.Inf
		if t := net.FirstSpike(relay[v]); t >= 0 {
			res.Dist[v] = t
		}
	}
	// Decode only once every distance is known: validPred reads the
	// latched predecessor's distance, which may belong to a later vertex.
	for v := 0; v < n; v++ {
		if res.Dist[v] == graph.Inf || v == src {
			continue
		}
		id := 0
		for j := 0; j < lid; j++ {
			if net.Voltage(store[v][j]) >= 1 {
				id |= 1 << uint(j)
			}
		}
		if id < n && validPred(g, res.Dist, id, v) {
			res.Pred[v] = id
		} else {
			res.Merged[v] = true
		}
	}
	return res
}

// validPred reports whether u is a predecessor of v on some shortest
// path: an edge uv exists with dist[u] + ℓ(uv) = dist[v].
func validPred(g *graph.Graph, dist []int64, u, v int) bool {
	if dist[u] >= graph.Inf {
		return false
	}
	for _, ei := range g.Out(u) {
		e := g.Edge(int(ei))
		if e.To == v && dist[u]+e.Len == dist[v] {
			return true
		}
	}
	return false
}

// Path walks the latched predecessors from dst back to the source. It
// returns nil if dst is unreachable and an error if a tie-merged ID
// breaks the chain.
func (r *LatchSSSP) Path(dst int) ([]int, error) {
	if r.Dist[dst] >= graph.Inf {
		return nil, nil
	}
	var rev []int
	for v := dst; ; {
		rev = append(rev, v)
		if v == r.src {
			break
		}
		if r.Merged[v] || r.Pred[v] < 0 {
			return nil, fmt.Errorf("core: latched ID at vertex %d is a tie-merge; path not recoverable", v)
		}
		v = r.Pred[v]
		if len(rev) > len(r.Dist) {
			return nil, fmt.Errorf("core: predecessor cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
