package snn

import "fmt"

// Causal provenance capture: the paper's results are causal claims — a
// neuron's first spike time *is* the shortest-path distance because a
// specific chain of synaptic deliveries made it fire — so the engine can
// optionally report, for every firing, the full set of deliveries that
// arrived at that step together with the membrane voltage before and
// after integration. telemetry.FlightRecorder is the standard consumer;
// it keeps the events in a bounded ring and serializes them to the
// spaa-provenance/v1 log that `spaabench why` and `spaabench replay`
// read.

// Antecedent is one synaptic delivery that arrived at the step a neuron
// fired: the presynaptic neuron, the synapse weight, and the synaptic
// delay (the spike was emitted at arrival time minus Delay). Delay is -1
// when the delivery was scheduled before the flight probe was attached
// (attach before Run to avoid this).
type Antecedent struct {
	From   int32
	Weight float64
	Delay  int64
}

// FlightProbe observes every firing with its causal context. OnSpike is
// called once per spike, after the engine has scheduled the spike's
// outgoing deliveries:
//
//   - t is the firing time, neuron the firing neuron.
//   - forced marks induced (input) spikes, which fire regardless of
//     voltage.
//   - vBefore is the membrane voltage decayed to t before synaptic
//     integration; vAfter = vBefore plus this step's synaptic input (the
//     value that crossed threshold; equal to vBefore when nothing
//     arrived).
//   - antecedents lists every delivery that arrived at t, inhibitory
//     ones included. The slice is engine-owned scratch, valid only for
//     the duration of the call — copy it to retain it.
//
// Like StepProbe, a nil flight probe costs the step loop a single
// predictable branch (guarded by BenchmarkEngineProbeOverhead); the
// grouping work below only runs while a probe is attached.
type FlightProbe interface {
	OnSpike(t int64, neuron int32, forced bool, vBefore, vAfter float64, antecedents []Antecedent)
}

// SetFlightProbe installs (or, with nil, removes) the causal spike
// observer. Attach it before the first Run call: deliveries scheduled
// earlier carry no delay metadata and report Delay -1. The probe stays
// attached across Reset.
func (n *Network) SetFlightProbe(p FlightProbe) { n.flight = p }

// SetLabel names neuron i for forensic output (provenance logs, the
// `spaabench why` proof tree). Labels are advisory: they are not part of
// the netlist format and do not affect dynamics.
func (n *Network) SetLabel(i int, label string) {
	if i < 0 || i >= len(n.cells) {
		panic(fmt.Sprintf("snn: label on neuron %d of %d", i, len(n.cells)))
	}
	for len(n.labels) < len(n.cells) {
		n.labels = append(n.labels, "")
	}
	n.labels[i] = label
}

// SetLabeler installs a fallback naming function consulted by Label for
// neurons without an explicit SetLabel. It is called lazily, so labeling
// a large network this way costs nothing until a forensic tool asks
// (core.SSSP names its relay neurons "v<vertex>" through this hook).
func (n *Network) SetLabeler(f func(i int) string) { n.labeler = f }

// Label returns neuron i's name: the explicit SetLabel value if set,
// else the SetLabeler result, else "".
func (n *Network) Label(i int) string {
	if i >= 0 && i < len(n.labels) && n.labels[i] != "" {
		return n.labels[i]
	}
	if n.labeler != nil && i >= 0 && i < len(n.cells) {
		return n.labeler(i)
	}
	return ""
}

// captureAntecedents groups this step's deliveries, those of bucket id,
// by target neuron into the reusable scratch lists. Called only while a
// flight probe is attached.
func (n *Network) captureAntecedents(id int32, deliveries []delivery) {
	if len(n.ants) < len(n.cells) {
		n.ants = append(n.ants, make([][]Antecedent, len(n.cells)-len(n.ants))...)
	}
	// Delay metadata aligns index-for-index with deliveries only when
	// every delivery in the bucket was scheduled with the probe attached.
	var delays []int64
	if int(id) < len(n.delays) {
		delays = n.delays[id]
	}
	aligned := len(delays) == len(deliveries)
	for di, d := range deliveries {
		delay := int64(-1)
		if aligned {
			delay = delays[di]
		}
		if len(n.ants[d.to]) == 0 {
			n.antTargets = append(n.antTargets, d.to)
		}
		n.ants[d.to] = append(n.ants[d.to], Antecedent{From: d.from, Weight: d.weight, Delay: delay})
	}
}

// clearAntecedents resets the per-step scratch, keeping capacity.
func (n *Network) clearAntecedents() {
	for _, i := range n.antTargets {
		n.ants[i] = n.ants[i][:0]
	}
	n.antTargets = n.antTargets[:0]
}
