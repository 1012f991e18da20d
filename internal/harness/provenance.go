package harness

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// RecordedSSSP is a Section 3 SSSP run together with its causal flight
// recording: the distances/predecessors the wavefront computed and a
// self-contained provenance log that `spaabench why` walks and
// `spaabench replay` re-executes.
type RecordedSSSP struct {
	Dist []int64
	Pred []int
	Log  *telemetry.ProvenanceLog
}

// RecordSSSP runs the spiking SSSP algorithm with the causal flight
// recorder attached and assembles the spaa-provenance/v1 log. The
// netlist is captured before the run (so the induced source spike is
// preserved for replay) and every relay neuron is labeled with its
// vertex name. dst >= 0 installs the terminal neuron of Definition 3;
// dst = -1 records the full wavefront.
//
// The recorder is sized to hold every possible event (relay neurons fire
// at most once), so Dropped is always zero and the log replays cleanly.
func RecordSSSP(g *graph.Graph, src, dst int, tool, command string) (*RecordedSSSP, error) {
	return RecordSSSPInjected(g, src, dst, tool, command, nil)
}

// RecordSSSPInjected is RecordSSSP with a hardware fault injector
// attached for the recorded run. The netlist is captured before the
// injector, so the log describes the pristine network: replaying it
// re-executes fault-free, and any observable perturbation the injector
// caused surfaces as a replay divergence — the forensic path for
// diagnosing faulted runs (and the determinism check that different
// fault seeds produce different event streams).
func RecordSSSPInjected(g *graph.Graph, src, dst int, tool, command string, inj snn.Injector) (*RecordedSSSP, error) {
	n := g.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("harness: source %d out of range [0,%d)", src, n)
	}
	if dst < -1 || dst >= n {
		return nil, fmt.Errorf("harness: destination %d out of range [0,%d)", dst, n)
	}
	net := snn.NewNetwork(snn.Config{Rule: snn.FireGTE})
	net.SetLabeler(func(i int) string { return "v" + strconv.Itoa(i) })
	relays := make([]int, n)
	for v := 0; v < n; v++ {
		relays[v] = net.AddNeuron(snn.Integrator(1))
	}
	for v := 0; v < n; v++ {
		net.Connect(relays[v], relays[v], -float64(g.InDeg(v)+1), 1)
	}
	for _, e := range g.Edges() {
		net.Connect(relays[e.From], relays[e.To], 1, e.Len)
	}
	if dst >= 0 {
		net.SetTerminal(relays[dst])
	}
	net.InduceSpike(relays[src], 0)

	netlist, err := telemetry.CaptureNetlist(net) // before Run: keeps the induced spike
	if err != nil {
		return nil, err
	}
	labels := telemetry.CaptureLabels(net)
	// Spurious stuck-firing spikes and extra fires under voltage upsets can
	// exceed the fire-once bound; size the ring for the worst faulted case.
	capacity := n + 64
	if inj != nil {
		capacity = 4*n + 256
	}
	rec := telemetry.NewFlightRecorder(capacity)
	net.SetFlightProbe(rec)
	if inj != nil {
		net.SetInjector(inj) // after netlist capture: the log stays pristine
	}
	horizon := core.RelayHorizon(n, g.MaxLen())
	net.Run(horizon)

	out := &RecordedSSSP{
		Dist: make([]int64, n),
		Pred: make([]int, n),
		Log:  telemetry.NewProvenanceLog(tool, command, netlist, horizon, labels, rec),
	}
	for v := 0; v < n; v++ {
		t := net.FirstSpike(relays[v])
		if t < 0 {
			out.Dist[v] = graph.Inf
			out.Pred[v] = -1
			continue
		}
		out.Dist[v] = t
		out.Pred[v] = net.FirstCause(relays[v])
	}
	return out, nil
}

// Path reconstructs the shortest path to dst from the latched
// predecessors, or nil if dst was not reached.
func (r *RecordedSSSP) Path(dst int) []int {
	if r.Dist[dst] >= graph.Inf {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = r.Pred[v] {
		rev = append(rev, v)
		if len(rev) > len(r.Dist) {
			panic("harness: predecessor cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
