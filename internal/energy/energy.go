// Package energy is the third measured cost axis of the observability
// story, after model units (telemetry) and wall-clock throughput
// (perf): energy accounting priced from counted events. The paper's
// abstract claims "energy consumption orders of magnitude lower than
// conventional high-performance computing systems"; where
// internal/platform holds the Table 3 survey data that claim rests on,
// this package turns it into tariffs — per spike, per synaptic
// delivery, per idle step — plus a classic-comparator per-op price, so
// the spiking-vs-CPU joule comparison is computed on the same run
// instead of estimated from formulas. Energy is linear in the counted
// events, so a run is priced from its snn.Stats after the run
// (NewReport); nothing is charged inside the engine's step loop.
//
// All accounting is integral, in millipicojoules (mpJ = pJ × 1000), so
// energy reports are byte-deterministic functions of the seeded
// workload and the spaa-energy/v1 manifest section can be compared
// exactly by the `spaabench regress` gate. The package is a leaf over
// internal/platform: stdlib-only otherwise, imported by telemetry
// (manifest section), metrics (Prometheus families), harness (bench
// cases + soak), and faults (energy-under-faults columns), never the
// other way around.
package energy

import (
	"math"

	"repro/internal/platform"
)

// ReferencePlatform names the Table 3 row used when a single spiking
// energy figure is needed (soak aggregates, the dashboard tile): Loihi,
// the platform the repo's fleet accounting already charges.
const ReferencePlatform = "Loihi"

// Tariff prices one platform's run in millipicojoules. The Table 3
// survey publishes only a per-spike-event figure, which the paper (and
// the repo's existing estimator) charges per synaptic delivery; the
// spike and idle-step components exist so platform-specific models can
// charge static leakage or somatic firing cost separately — they
// default to zero for the Table 3 rows.
type Tariff struct {
	// Platform is the Table 3 row name ("" for the CPU op tariff).
	Platform string
	// SpikeMilliPJ is charged once per neuron firing.
	SpikeMilliPJ int64
	// DeliveryMilliPJ is charged once per synaptic delivery (the Table 3
	// pJ/spike-event figure; 0 = the platform publishes none).
	DeliveryMilliPJ int64
	// IdleStepMilliPJ is charged once per simulated step in which the
	// platform sat idle (the engine's SilentStepsSkipped).
	IdleStepMilliPJ int64
}

// Unpublished reports whether the platform publishes no energy figure
// at all — such platforms render as "-" and never divide a table row.
func (t Tariff) Unpublished() bool {
	return t.SpikeMilliPJ == 0 && t.DeliveryMilliPJ == 0 && t.IdleStepMilliPJ == 0
}

// Charge prices a run's counted events under the tariff.
func (t Tariff) Charge(spikes, deliveries, idleSteps int64) int64 {
	return spikes*t.SpikeMilliPJ + deliveries*t.DeliveryMilliPJ + idleSteps*t.IdleStepMilliPJ
}

// TariffFor derives a platform's tariff from its Table 3 row. Platforms
// without a published pJ/spike figure (SpiNNaker 2) get a zero tariff,
// reported as "-" downstream, never as an advantage of 0.
func TariffFor(p platform.Platform) Tariff {
	return Tariff{
		Platform:        p.Name,
		DeliveryMilliPJ: int64(math.Round(p.PicoJoulePerSpike * 1000)),
	}
}

// Tariffs returns the tariff of every non-CPU Table 3 platform, in
// table order — the fixed, bounded vocabulary the Prometheus platform
// label draws from.
func Tariffs() []Tariff {
	var out []Tariff
	for _, p := range platform.Table3() {
		if p.IsCPU {
			continue
		}
		out = append(out, TariffFor(p))
	}
	return out
}

// PlatformNames returns the non-CPU Table 3 platform names in table
// order (the bounded metric-label set).
func PlatformNames() []string {
	ts := Tariffs()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Platform
	}
	return names
}

// ReferenceTariff returns the ReferencePlatform tariff.
func ReferenceTariff() Tariff {
	for _, t := range Tariffs() {
		if t.Platform == ReferencePlatform {
			return t
		}
	}
	panic("energy: reference platform missing from Table 3")
}

// CPUOpMilliPJ is the conventional comparator's per-operation price in
// millipicojoules, derived from the Table 3 CPU row (running power over
// clock rate — one cycle per primitive operation, deliberately generous
// to the CPU).
func CPUOpMilliPJ() int64 {
	return int64(math.Round(platform.CPUEnergyPerOpJoules() * 1e15))
}

// JoulesFromMilliPJ converts an integral mpJ total to joules (for
// display only — all comparison and gating stays integral).
func JoulesFromMilliPJ(milliPJ int64) float64 {
	return float64(milliPJ) * 1e-15
}
