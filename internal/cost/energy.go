package cost

// Model-level energy prediction: the Table 1 complexities priced at the
// Table 3 tariffs. internal/energy meters what a run actually spent;
// this file predicts the same ratio from the closed forms, so measured
// advantage curves (spaabench bench) can be checked against the
// model's growth shape.

import "repro/internal/platform"

// SpikeEventsSSSP is the model spike-event count of the
// pseudopolynomial SSSP circuit: O(m) synaptic events — each edge
// carries a bounded number of deliveries during the wavefront sweep.
func SpikeEventsSSSP(p Params) float64 {
	p.validate()
	return float64(p.M)
}

// SpikeEventsKHop is the model spike-event count of the k-hop circuit:
// O(km) — each edge can re-fire once per relaxation round.
func SpikeEventsKHop(p Params) float64 {
	p.validate()
	return float64(p.K) * float64(p.M)
}

// PredictedEnergyAdvantage prices convOps at the Table 3 CPU per-op
// tariff and spikeEvents at platform pl's pJ/spike figure, returning
// the classic/spiking energy ratio. Returns 0 when pl publishes no
// spike energy (SpiNNaker 2) — the same "unpublished, not zero"
// convention internal/energy uses.
func PredictedEnergyAdvantage(pl platform.Platform, convOps, spikeEvents float64) float64 {
	if pl.PicoJoulePerSpike <= 0 || spikeEvents <= 0 {
		return 0
	}
	classic := convOps * platform.CPUEnergyPerOpJoules()
	spiking := spikeEvents * pl.PicoJoulePerSpike * 1e-12
	return classic / spiking
}

// SSSPEnergyAdvantage is the predicted spiking-vs-CPU energy ratio for
// SSSP on platform pl: Dijkstra's op count against the circuit's spike
// events.
func SSSPEnergyAdvantage(pl platform.Platform, p Params) float64 {
	return PredictedEnergyAdvantage(pl, ConvSSSP(p), SpikeEventsSSSP(p))
}

// KHopEnergyAdvantage is the predicted ratio for k-hop SSSP:
// Bellman-Ford's km ops against km spike events. The op-for-event
// cancellation makes the prediction tariff-only — the "orders of
// magnitude" abstract claim in closed form.
func KHopEnergyAdvantage(pl platform.Platform, p Params) float64 {
	return PredictedEnergyAdvantage(pl, ConvKHop(p), SpikeEventsKHop(p))
}
