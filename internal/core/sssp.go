// Package core implements the paper's neuromorphic graph algorithms:
//
//   - SSSP: the pseudopolynomial-time spiking single-source shortest-path
//     algorithm of Section 3 (delay-coded Dijkstra, after Aibara et al. and
//     Aimone et al.), running on the actual LIF simulator.
//   - KHopTTL: the pseudopolynomial k-hop algorithm of Section 4.1
//     (time-to-live messages, max circuits, decrement circuits), as an
//     exact message-level simulation with the paper's cost accounting.
//   - CompileKHopTTL: the same algorithm compiled all the way down to
//     threshold gates (max + decrement circuits per node) and executed as
//     one spiking network — the full vertical stack of Sections 4.1 + 5.
//   - KHopPoly / SSSPPoly: the polynomial-time algorithms of Section 4.2.
//   - ApproxKHop: the (1+o(1))-approximation of Section 7 (Nanongkai
//     adaptation).
//
// SSSP compiles its relay network once (BuildSSSP) and may run it many
// times: an SSSPNetwork restores its freshly built state before every
// Run after the first, so the load charge is paid once per graph while
// each run equals a fresh build's. Recompile programs another graph into
// a used network's buffers, equal to a fresh BuildSSSP, and Park drops
// the run scratch of a network kept idle between queries. A compiled
// network keeps no reference to its graph, as a loaded chip keeps only
// its programmed synapses. A network serves one Run at a time; it is not
// safe for concurrent use.
//
// All algorithms return unscaled distances that match their conventional
// counterparts exactly (or within (1+ε) for the approximation), together
// with the neuron/time cost measures the paper's theorems predict.
package core

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/snn"
)

// SSSPResult reports distances and costs for the spiking SSSP algorithm.
type SSSPResult struct {
	// Dist[v] is the shortest-path distance from the source, graph.Inf if
	// v never spiked.
	Dist []int64
	// Pred[v] is the neighbor whose spike first reached v (the latched
	// predecessor ID of Section 3), or -1.
	Pred []int
	// SpikeTime is the simulated time of the last relevant spike: the L
	// term of Theorem 4.1 (exactly dist(dst), or max finite distance when
	// computing all distances).
	SpikeTime int64
	// LoadTime is the O(m) charge for loading the graph into the SNA and
	// reading results out, per Section 3.
	LoadTime int64
	// Neurons and Synapses describe the constructed network.
	Neurons, Synapses int
	// TimedOut is true when the simulation exhausted its horizon with
	// events still pending (possible only under a step budget or fault
	// injection, which can jitter deliveries past the analytic n·U
	// bound): distances of vertices that had not yet spiked are
	// unreliable, not proofs of unreachability. Unbudgeted fault-free runs
	// never time out — the horizon dominates every finite first-spike
	// time.
	TimedOut bool
	// Stats carries spike/delivery/step counts from the simulator.
	Stats snn.Stats
}

// ErrTimedOut reports that a bounded-horizon run ended with the terminal
// neuron unfired and events still pending: the destination's distance is
// unknown, not infinite.
var ErrTimedOut = errors.New("core: simulation horizon exhausted before the terminal fired")

// SSSP runs the pseudopolynomial spiking SSSP algorithm of Section 3 on
// the LIF simulator. Each graph vertex becomes one relay neuron; each
// edge becomes a synapse whose delay equals the edge length, so spike
// timing implements Dijkstra's priority queue. A relay propagates only
// its first incoming spike, enforced physically by an inhibitory
// self-loop of weight -(indeg+1). All edge lengths must be >= 1 (the
// minimum programmable delay δ; rescale zero-length edges first).
//
// dst >= 0 halts the computation when dst first spikes (Definition 3's
// terminal neuron); dst = -1 computes distances to every vertex.
//
// Optional probes observe the run: a plain snn.StepProbe sees every
// simulated step (the telemetry hook: per-step spikes, deliveries,
// active neurons, queue depth); a probe that also implements
// snn.FlightProbe (telemetry.FlightRecorder) is attached as the causal
// flight recorder instead, capturing every firing with its antecedent
// set for provenance logs.
//
// The returned error is non-nil exactly when dst >= 0 and the simulation
// horizon was exhausted before the terminal fired (ErrTimedOut): the
// destination's distance is then unknown rather than infinite. Fault-free
// runs never hit this — the horizon exceeds every finite first-spike
// time — so callers on the pristine path may treat the error as an
// internal invariant violation.
func SSSP(g *graph.Graph, src, dst int, probe ...snn.StepProbe) (*SSSPResult, error) {
	return BuildSSSP(g).run(src, dst, nil, 0, 0, probe...)
}

// SSSPNetwork is a compiled Section 3 netlist: the relay network built
// from a graph, ready to simulate. Splitting construction (BuildSSSP)
// from simulation (Run) exposes the two phases the perf harness times
// separately — netlist build is the O(n+m) load charge of the paper,
// the run is the spiking computation itself. The network is re-runnable:
// relays latch their first spike, so every Run after the first restores
// the freshly built state (snn.Network.Reset, then drops the previous
// run's terminal, injector and probes) before it simulates, and its
// result equals a fresh BuildSSSP's. One compile thus serves any number of
// queries on the same graph — the NMR replicas, retries and self-check of
// internal/faults. Runs mutate the network: it serves one Run at a time
// and is not safe for concurrent use.
type SSSPNetwork struct {
	rn  *relayNetwork
	ran bool // a previous run left dynamic state behind
}

// BuildSSSP compiles a graph into the Section 3 relay network: one
// fire-once relay neuron per vertex, one delay-coded synapse per edge.
// All edge lengths must be >= 1 (the minimum programmable delay δ;
// rescale zero-length edges first).
func BuildSSSP(g *graph.Graph) *SSSPNetwork {
	return &SSSPNetwork{rn: newRelayNetwork(g)}
}

// Recompile compiles g into sn in place of its current graph, reusing
// the buffers of its netlist: the relay builder clears sn's network and
// runs as BuildSSSP runs it on a fresh one, so sn then equals
// BuildSSSP(g) in its netlist and in every Run. A pool of compiled
// networks recompiles an idle one for a graph it does not hold.
func (sn *SSSPNetwork) Recompile(g *graph.Graph) {
	sn.rn.compile(g)
	sn.ran = false
}

// Park drops what a loaded chip does not keep between queries, the
// event-queue scratch of the last run (snn.Network.Trim). The compiled
// netlist stays and runs as before.
func (sn *SSSPNetwork) Park() { sn.rn.net.Trim() }

// MemoryBytes reports the bytes the compiled netlist occupies; see
// snn.Network.MemoryBytes.
func (sn *SSSPNetwork) MemoryBytes() int { return sn.rn.net.MemoryBytes() }

// Neurons reports the size of the compiled network.
func (sn *SSSPNetwork) Neurons() int { return sn.rn.net.N() }

// Synapses reports the synapse count of the compiled network.
func (sn *SSSPNetwork) Synapses() int { return sn.rn.net.Synapses() }

// Run simulates the compiled network from src, halting when dst first
// spikes (dst = -1 computes all distances). Semantics, probe handling,
// and the returned error match SSSP exactly, on the first Run and on
// every later one.
func (sn *SSSPNetwork) Run(src, dst int, probe ...snn.StepProbe) (*SSSPResult, error) {
	return sn.run(src, dst, nil, 0, 0, probe...)
}

// RunBudgeted is Run under a per-query deadline: the simulation halts
// after budget simulated steps (budget <= 0 means no cap), with the
// optional hardware fault injector inj attached (internal/faults builds
// the standard one) and the horizon extended by horizonSlack steps, since
// delay jitter makes deliveries arrive later than the analytic n·U bound.
// A run cut short by the budget reports TimedOut (and ErrTimedOut when a
// destination was requested but never fired); distances latched before
// the deadline are exact, later vertices read graph.Inf and are
// unreliable. RunBudgeted(src, dst, nil, 0, 0) is exactly Run.
func (sn *SSSPNetwork) RunBudgeted(src, dst int, inj snn.Injector, horizonSlack, budget int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	return sn.run(src, dst, inj, horizonSlack, budget, probe...)
}

// run is the single simulation path shared by SSSP, SSSPNetwork.Run and
// SSSPNetwork.RunBudgeted.
func (sn *SSSPNetwork) run(src, dst int, inj snn.Injector, horizonSlack, budget int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	net := sn.rn.net
	n := net.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
	}
	if dst < -1 || dst >= n {
		panic(fmt.Sprintf("core: destination %d out of range", dst))
	}
	if horizonSlack < 0 {
		panic(fmt.Sprintf("core: negative horizon slack %d", horizonSlack))
	}

	if sn.ran {
		// Restore the freshly built state: Reset keeps the terminal,
		// injector and probes, so drop the previous run's too.
		net.Reset()
		net.ClearTerminals()
		net.SetInjector(nil)
		net.SetProbe(nil)
		net.SetFlightProbe(nil)
	}
	sn.ran = true
	attachProbes(net, probe)
	if dst >= 0 {
		net.SetTerminal(dst)
	}
	net.InduceSpike(src, 0)
	if inj != nil {
		net.SetInjector(inj) // after topology + induced input: Prepare sees the final network
	}

	horizon := sn.rn.horizon
	saturated := horizon == graph.Inf-1
	if !saturated && horizonSlack > 0 {
		if horizonSlack > graph.Inf-1-horizon {
			horizon, saturated = graph.Inf-1, true
		} else {
			horizon += horizonSlack
		}
	}
	// A per-query budget caps the horizon below the analytic bound: the
	// deadline-propagation seam. A budget-cut run is never "saturated" —
	// events pending past it are slow, not unreachable — so it reports
	// TimedOut honestly.
	capped := budget > 0 && budget < horizon
	if capped {
		horizon, saturated = budget, false
	}
	r := net.Run(horizon)

	res := &SSSPResult{
		Dist:     make([]int64, n),
		Pred:     make([]int, n),
		LoadTime: int64(net.Synapses()), // m+n: a self-loop per relay, a synapse per edge
		Neurons:  net.N(),
		Synapses: net.Synapses(),
		Stats:    r.Stats,
		// A saturated horizon (graph.Inf-length "disabled" edges, as the
		// crossbar embedder programs) always leaves events pending at or
		// beyond graph.Inf; those targets are unreachable by definition,
		// not timed out.
		TimedOut: r.TimedOut && !saturated,
	}
	for v := 0; v < n; v++ {
		t := net.FirstSpike(v)
		if t < 0 {
			res.Dist[v] = graph.Inf
			res.Pred[v] = -1
			continue
		}
		res.Dist[v] = t
		res.Pred[v] = net.FirstCause(v)
		if t > res.SpikeTime {
			res.SpikeTime = t
		}
	}
	if dst >= 0 && r.Halted {
		res.SpikeTime = r.TerminalTime
	}
	if dst >= 0 && !r.Halted && res.TimedOut {
		return res, fmt.Errorf("%w (dst %d unfired at horizon %d)", ErrTimedOut, dst, horizon)
	}
	return res, nil
}

// Path reconstructs the shortest path to dst from the latched
// predecessors, or nil if dst was not reached.
func (r *SSSPResult) Path(dst int) []int {
	if r.Dist[dst] >= graph.Inf {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = r.Pred[v] {
		rev = append(rev, v)
		if len(rev) > len(r.Dist) {
			panic("core: predecessor cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RelayHorizon bounds the simulation: every finite first-spike time on n
// vertices with longest edge maxLen is at most n·U, but graphs may carry
// graph.Inf "disabled" delays (the crossbar embedder uses them), so the
// horizon saturates at graph.Inf-1: any event scheduled through a
// disabled edge lands at or beyond graph.Inf and is never processed.
func RelayHorizon(n int, maxLen int64) int64 {
	u := maxInt64(maxLen, 1)
	nn := int64(n)
	if u >= graph.Inf/(nn+1) {
		return graph.Inf - 1
	}
	return nn*u + 1
}

// relayNetwork is the Section 3 construction: one fire-once relay neuron
// per vertex, one delay-coded synapse per edge. Relay ids equal vertex
// ids, so callers address a vertex's relay by the vertex itself. horizon
// is RelayHorizon of the graph as built.
type relayNetwork struct {
	net     *snn.Network
	horizon int64
}

// attachProbes routes the optional probe arguments of the algorithm
// entry points: probes that implement snn.FlightProbe become the causal
// flight recorder, the first remaining probe becomes the step probe.
func attachProbes(net *snn.Network, probes []snn.StepProbe) {
	stepSet := false
	for _, p := range probes {
		if p == nil {
			continue
		}
		if fp, ok := p.(snn.FlightProbe); ok {
			net.SetFlightProbe(fp)
			continue
		}
		if !stepSet {
			net.SetProbe(p)
			stepSet = true
		}
	}
}

func newRelayNetwork(g *graph.Graph) *relayNetwork {
	rn := &relayNetwork{net: snn.NewNetwork(snn.Config{Rule: snn.FireGTE})}
	rn.compile(g)
	return rn
}

// compile clears rn's network and programs g's relay network into it.
// It is the one relay builder: newRelayNetwork runs it on a fresh
// network and SSSPNetwork.Recompile on a used one.
func (rn *relayNetwork) compile(g *graph.Graph) {
	n := g.N()
	net := rn.net
	net.Clear()
	net.Grow(n, n+g.M())
	// Relay ids equal vertex ids, so the synapses below are wired by
	// vertex id; the lazy labeler costs nothing unless a provenance log
	// asks for names.
	net.SetLabeler(func(i int) string { return "v" + strconv.Itoa(i) })
	for v := 0; v < n; v++ {
		net.AddNeuron(snn.Integrator(1))
	}
	// Each relay's row holds its self-loop, then its out-edges in
	// edge-index order: the order of g.Out(v), whose index is a stable
	// counting sort of the edge list. That fan-out order fixes FirstCause
	// (and thus Pred) tie-breaks. The rows are sized up front, so the
	// edges are placed in one sequential walk of the edge list, which also
	// checks every length and finds the longest.
	net.SizeRows(func(v int) int { return 1 + g.OutDeg(v) })
	for v := 0; v < n; v++ {
		// Fire-once: one inhibitory pulse outweighs every possible future
		// excitation (at most indeg unit arrivals remain).
		net.Place(v, v, -float64(g.InDeg(v)+1), 1)
	}
	var maxLen int64
	for _, e := range g.Edges() {
		if e.Len < 1 {
			panic("core: SSSP requires edge lengths >= 1 (the minimum synaptic delay)")
		}
		maxLen = max(maxLen, e.Len)
		net.Place(e.From, e.To, 1, e.Len)
	}
	rn.horizon = RelayHorizon(n, maxLen)
}
