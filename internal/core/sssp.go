// Package neuro implements the paper's neuromorphic graph algorithms:
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
	// events still pending (possible only under fault injection, which
	// can jitter deliveries past the analytic n·U bound): distances of
	// vertices that had not yet spiked are unreliable, not proofs of
	// unreachability. Fault-free runs never time out — the horizon
	// dominates every finite first-spike time.
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
	return SSSPInjected(g, src, dst, nil, 0, probe...)
}

// SSSPInjected runs the Section 3 spiking SSSP with an optional hardware
// fault injector attached to the simulator (internal/faults builds the
// standard one) and the simulation horizon extended by horizonSlack
// steps. Delay jitter makes deliveries arrive later than the analytic
// n·U bound, so fault campaigns pass a slack of n·maxJitter; everything
// else matches SSSP, and SSSPInjected(g, src, dst, nil, 0) is exactly the
// fault-free run.
func SSSPInjected(g *graph.Graph, src, dst int, inj snn.Injector, horizonSlack int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	return BuildSSSP(g).run(src, dst, inj, horizonSlack, 0, probe...)
}

// SSSPBudgeted runs the Section 3 spiking SSSP under a per-query deadline:
// the simulation halts after budget simulated steps even if the wavefront
// has not finished, so a slow query is cancelled rather than abandoned.
// A run cut short by the budget reports TimedOut (and ErrTimedOut when a
// destination was requested but never fired); distances latched before the
// deadline are exact, later vertices read graph.Inf and are unreliable —
// the partial answer a deadline-propagating service must label degraded.
// budget <= 0 means no cap, reproducing SSSPInjected exactly; the slack
// and injector arguments match SSSPInjected.
func SSSPBudgeted(g *graph.Graph, src, dst int, inj snn.Injector, horizonSlack, budget int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	return BuildSSSP(g).run(src, dst, inj, horizonSlack, budget, probe...)
}

// SSSPNetwork is a compiled Section 3 netlist: the relay network built
// from a graph, ready to simulate. Splitting construction (BuildSSSP)
// from simulation (Run) exposes the two phases the perf harness times
// separately — netlist build is the O(n+m) load charge of the paper,
// the run is the spiking computation itself. The network is single-shot:
// relays latch their first spike, so each BuildSSSP result supports
// exactly one Run.
type SSSPNetwork struct {
	g    *graph.Graph
	rn   *relayNetwork
	used bool
}

// BuildSSSP compiles a graph into the Section 3 relay network: one
// fire-once relay neuron per vertex, one delay-coded synapse per edge.
// All edge lengths must be >= 1 (the minimum programmable delay δ;
// rescale zero-length edges first).
func BuildSSSP(g *graph.Graph) *SSSPNetwork {
	if g.M() > 0 && g.MinLen() < 1 {
		panic("core: SSSP requires edge lengths >= 1 (the minimum synaptic delay)")
	}
	return &SSSPNetwork{g: g, rn: newRelayNetwork(g)}
}

// Neurons reports the size of the compiled network.
func (sn *SSSPNetwork) Neurons() int { return sn.rn.net.N() }

// Synapses reports the synapse count of the compiled network.
func (sn *SSSPNetwork) Synapses() int { return sn.rn.net.Synapses() }

// Run simulates the compiled network from src, halting when dst first
// spikes (dst = -1 computes all distances). Semantics, probe handling,
// and the returned error match SSSP exactly. Run panics if called twice:
// the latched relays make a second run meaningless.
func (sn *SSSPNetwork) Run(src, dst int, probe ...snn.StepProbe) (*SSSPResult, error) {
	return sn.run(src, dst, nil, 0, 0, probe...)
}

// RunBudgeted is Run under a per-query deadline: the simulation halts
// after budget simulated steps (budget <= 0 means no cap), matching
// SSSPBudgeted's semantics on an explicitly built network. Exposing the
// budgeted run on SSSPNetwork lets callers that need the build/run
// phase boundary — the service's per-query trace spans, the perf
// harness — time netlist construction and simulation separately while
// keeping deadline propagation.
func (sn *SSSPNetwork) RunBudgeted(src, dst int, inj snn.Injector, horizonSlack, budget int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	return sn.run(src, dst, inj, horizonSlack, budget, probe...)
}

// run is the single simulation path shared by SSSP, SSSPInjected,
// SSSPBudgeted, and SSSPNetwork.Run.
func (sn *SSSPNetwork) run(src, dst int, inj snn.Injector, horizonSlack, budget int64, probe ...snn.StepProbe) (*SSSPResult, error) {
	g := sn.g
	n := g.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
	}
	if dst < -1 || dst >= n {
		panic(fmt.Sprintf("core: destination %d out of range", dst))
	}
	if horizonSlack < 0 {
		panic(fmt.Sprintf("core: negative horizon slack %d", horizonSlack))
	}
	if sn.used {
		panic("core: SSSPNetwork is single-shot (relays latch their first spike); rebuild with BuildSSSP")
	}
	sn.used = true

	net, relays := sn.rn.net, sn.rn.relays
	attachProbes(net, probe)
	if dst >= 0 {
		net.SetTerminal(relays[dst])
	}
	net.InduceSpike(relays[src], 0)
	if inj != nil {
		net.SetInjector(inj) // after topology + induced input: Prepare sees the final network
	}

	horizon := ssspHorizon(g)
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
		LoadTime: int64(g.M() + n),
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
		t := net.FirstSpike(relays[v])
		if t < 0 {
			res.Dist[v] = graph.Inf
			res.Pred[v] = -1
			continue
		}
		res.Dist[v] = t
		res.Pred[v] = net.FirstCause(relays[v]) // relay ids == vertex ids
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

// ssspHorizon bounds the simulation: every finite first-spike time is at
// most n·U, but graphs may carry graph.Inf "disabled" delays (the crossbar
// embedder uses them), so the horizon saturates at graph.Inf-1: any event
// scheduled through a disabled edge lands at or beyond graph.Inf and is
// never processed.
func ssspHorizon(g *graph.Graph) int64 {
	u := maxInt64(g.MaxLen(), 1)
	n := int64(g.N())
	if u >= graph.Inf/(n+1) {
		return graph.Inf - 1
	}
	return n*u + 1
}

// relayNetwork is the Section 3 construction: one fire-once relay neuron
// per vertex, one delay-coded synapse per edge.
type relayNetwork struct {
	net    *snn.Network
	relays []int
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
	n := g.N()
	net := snn.NewNetwork(snn.Config{Rule: snn.FireGTE})
	net.Grow(n, n+g.M())
	// Relay ids equal vertex ids, so the synapses below are wired by
	// vertex id; the lazy labeler costs nothing unless a provenance log
	// asks for names.
	net.SetLabeler(func(i int) string { return "v" + strconv.Itoa(i) })
	relays := make([]int, n)
	for v := 0; v < n; v++ {
		relays[v] = net.AddNeuron(snn.Integrator(1))
	}
	// Synapses go in source order, so they land directly in the engine's
	// CSR layout: each relay's self-loop, then its out-edges in edge-index
	// order. That is each relay's fan-out order, which fixes FirstCause
	// (and thus Pred) tie-breaks.
	for v := 0; v < n; v++ {
		// Fire-once: one inhibitory pulse outweighs every possible future
		// excitation (at most indeg unit arrivals remain).
		net.Connect(v, v, -float64(g.InDeg(v)+1), 1)
		for _, ei := range g.Out(v) {
			e := g.Edge(int(ei))
			net.Connect(v, e.To, 1, e.Len)
		}
	}
	return &relayNetwork{net: net, relays: relays}
}
