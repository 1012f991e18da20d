// Package perf is the throughput half of the observability story. Where
// internal/telemetry records *what* a run cost in model units (spikes,
// deliveries, ℓ1 movement) and internal/metrics exposes those costs
// live, this package measures *how fast* the reproduction pays them on
// real hardware: engine steps/sec, deliveries/sec, per-phase wall time
// (netlist build / run / report), and allocation + GC deltas from
// runtime.MemStats snapshots bracketing each run.
//
// The package is a leaf: stdlib-only, imported by telemetry (manifest
// section), metrics (Prometheus families), and harness (perf tier +
// soak), never the other way around. It owns no step probe: the run's
// totals are the engine's own snn.Stats, handed to Tracker.SetTotals
// after the run.
//
// Results are emitted as a deterministic spaa-perf/v1 Report: the
// counter-derived fields (steps, deliveries, deliveries/step, queue
// high-water) are seed-determined and compared exactly by the perf
// gate; the wall-derived fields (rates, phase times, alloc/GC deltas)
// are machine noise and are zeroed under -deterministic so committed
// baselines stay byte-reproducible across hosts.
package perf
