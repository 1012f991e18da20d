package metrics

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/distance"
	"repro/internal/energy"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// Canonical metric names of the live registry. Bridge.Fold writes
// every one of them from a run manifest, so a scrape looks identical
// whether the runs were folded in-process (spaabench soak) or pushed as
// manifests over HTTP (soak against serve, Server.Ingest).
const (
	MetricSteps        = "spaa_snn_steps_total"
	MetricSpikes       = "spaa_snn_spikes_total"
	MetricDeliveries   = "spaa_snn_deliveries_total"
	MetricActive       = "spaa_snn_active_neurons_total"
	MetricQueueDepth   = "spaa_snn_queue_depth"
	MetricSilentSteps  = "spaa_snn_silent_steps_skipped"
	MetricStepSpikes   = "spaa_snn_step_spikes"
	MetricDistanceOps  = "spaa_distance_ops_total"
	MetricDistanceL1   = "spaa_distance_movement_l1_total"
	MetricCongestRnds  = "spaa_congest_rounds_total"
	MetricCongestMsgs  = "spaa_congest_messages_total"
	MetricCongestBits  = "spaa_congest_bits_total"
	MetricFleetDeliver = "spaa_fleet_deliveries_total"

	// Throughput families fed by a manifest's spaa-perf/v1 section.
	// The rate gauges are campaign high-water marks (SetMax), so a
	// scrape mid-soak answers "how fast has a run gone", independent of
	// which workload finished last.
	MetricPerfStepsPerSec  = "spaa_perf_steps_per_sec"
	MetricPerfDelivPerSec  = "spaa_perf_deliveries_per_sec"
	MetricPerfPhaseWall    = "spaa_perf_phase_wall_ms"
	MetricPerfAllocBytes   = "spaa_perf_alloc_bytes_total"
	MetricPerfAllocObjects = "spaa_perf_alloc_objects_total"
	MetricPerfGCCycles     = "spaa_perf_gc_cycles_total"

	// Energy families fed by a manifest's spaa-energy/v1 section.
	// Spiking totals carry a platform label (the bounded Table 3 set);
	// the advantage gauge is a campaign high-water mark in milli-x,
	// matching the report's integral AdvantageMilli.
	MetricEnergySpiking   = "spaa_energy_spiking_millipicojoules_total"
	MetricEnergyClassic   = "spaa_energy_classic_millipicojoules_total"
	MetricEnergyAdvantage = "spaa_energy_advantage_ratio_milli"
)

// perfPhaseNames is the bounded phase-label vocabulary; reports with
// other phase names fold into "other" so remote manifests cannot grow
// series cardinality.
var perfPhaseNames = [4]string{"build", "run", "report", "other"}

// perfPhaseIndex clamps a phase name onto perfPhaseNames.
func perfPhaseIndex(name string) int {
	for i, n := range perfPhaseNames[:3] {
		if n == name {
			return i
		}
	}
	return 3
}

// Bridge folds run manifests into a Registry: Fold is the one path by
// which a run's cost account (stats, counters, per-step and per-round
// series, perf and energy sections) reaches the live scrape. Every
// collector is resolved once in NewBridge, so a fold touches only
// atomics, and Fold is safe for concurrent use. A nil *Bridge folds
// nothing.
type Bridge struct {
	steps, spikes, deliveries, active *Counter
	queueDepth, silentSteps           *Gauge
	stepSpikes                        *Histogram

	distOps  [3]*Counter // indexed by distance.OpKind
	distMove *Counter

	congestRounds, congestMessages, congestBits *Counter

	fleetIntra, fleetInter *Counter

	perfStepsPerSec, perfDelivPerSec *Gauge
	perfPhaseWall                    [4]*Histogram // indexed by perfPhaseIndex
	perfAllocBytes, perfAllocObjects *Counter
	perfGCCycles                     *Counter

	// Energy collectors, one spiking/advantage pair per Table 3 platform
	// (the label vocabulary is the fixed platform list, so remote
	// manifests cannot grow series cardinality).
	energyClassic       *Counter
	energyPlatformNames []string
	energySpiking       []*Counter
	energyAdvantage     []*Gauge
}

// NewBridge resolves every canonical collector in reg and returns the
// bridge. Resolution happens once, here, so Fold touches only atomics.
func NewBridge(reg *Registry) *Bridge {
	names := energy.PlatformNames()
	spiking := make([]*Counter, len(names))
	advantage := make([]*Gauge, len(names))
	for i, name := range names {
		spiking[i] = reg.Counter(MetricEnergySpiking, "metered spiking energy priced at the platform tariff (mpJ)", Label{Key: "platform", Value: name})
		advantage[i] = reg.Gauge(MetricEnergyAdvantage, "classic/spiking energy advantage high-water (milli-x)", Label{Key: "platform", Value: name})
	}
	return &Bridge{
		energyClassic:       reg.Counter(MetricEnergyClassic, "classic comparator energy at the CPU op tariff (mpJ)"),
		energyPlatformNames: names,
		energySpiking:       spiking,
		energyAdvantage:     advantage,
		steps:               reg.Counter(MetricSteps, "non-silent simulated steps processed"),
		spikes:              reg.Counter(MetricSpikes, "total neuron firings"),
		deliveries:          reg.Counter(MetricDeliveries, "total synaptic deliveries (energy proxy)"),
		active:              reg.Counter(MetricActive, "neuron membrane updates"),
		queueDepth:          reg.Gauge(MetricQueueDepth, "high-water mark of the pending event queue"),
		silentSteps:         reg.Gauge(MetricSilentSteps, "simulated steps skipped by the silence optimization"),
		stepSpikes:          reg.Histogram(MetricStepSpikes, "distribution of spikes per simulated step"),
		distOps: [3]*Counter{
			reg.Counter(MetricDistanceOps, "DISTANCE-machine primitives", Label{Key: "kind", Value: "load"}),
			reg.Counter(MetricDistanceOps, "DISTANCE-machine primitives", Label{Key: "kind", Value: "store"}),
			reg.Counter(MetricDistanceOps, "DISTANCE-machine primitives", Label{Key: "kind", Value: "op"}),
		},
		distMove:        reg.Counter(MetricDistanceL1, "accumulated l1 data movement"),
		congestRounds:   reg.Counter(MetricCongestRnds, "CONGEST rounds executed"),
		congestMessages: reg.Counter(MetricCongestMsgs, "CONGEST messages exchanged"),
		congestBits:     reg.Counter(MetricCongestBits, "CONGEST bits exchanged"),
		fleetIntra:      reg.Counter(MetricFleetDeliver, "chip-level spike deliveries", Label{Key: "route", Value: "intra"}),
		fleetInter:      reg.Counter(MetricFleetDeliver, "chip-level spike deliveries", Label{Key: "route", Value: "inter"}),
		perfStepsPerSec: reg.Gauge(MetricPerfStepsPerSec, "per-run engine throughput high-water (steps/sec)"),
		perfDelivPerSec: reg.Gauge(MetricPerfDelivPerSec, "per-run delivery throughput high-water (deliveries/sec)"),
		perfPhaseWall: [4]*Histogram{
			reg.Histogram(MetricPerfPhaseWall, "per-run phase wall time in milliseconds", Label{Key: "phase", Value: "build"}),
			reg.Histogram(MetricPerfPhaseWall, "per-run phase wall time in milliseconds", Label{Key: "phase", Value: "run"}),
			reg.Histogram(MetricPerfPhaseWall, "per-run phase wall time in milliseconds", Label{Key: "phase", Value: "report"}),
			reg.Histogram(MetricPerfPhaseWall, "per-run phase wall time in milliseconds", Label{Key: "phase", Value: "other"}),
		},
		perfAllocBytes:   reg.Counter(MetricPerfAllocBytes, "heap bytes allocated across tracked runs"),
		perfAllocObjects: reg.Counter(MetricPerfAllocObjects, "heap objects allocated across tracked runs"),
		perfGCCycles:     reg.Counter(MetricPerfGCCycles, "GC cycles completed during tracked runs"),
	}
}

// Fold adds one run manifest to the registry: the simulator stats, the
// known counters (congest_*, distance_*, fleet_*), the active-neuron,
// spikes-per-step and CONGEST-round families derived from the
// active_per_step, spikes_per_step and messages_per_round series, and
// the perf and energy sections. Unknown counters and series are
// ignored. A manifest carrying a negative value Fold would add is
// refused whole, before anything folds, with an error (see
// checkNonNegative). Called once per run, off the engine's hot path.
func (b *Bridge) Fold(m *telemetry.Manifest) error {
	if b == nil || m == nil {
		return nil
	}
	if err := b.checkNonNegative(m); err != nil {
		return err
	}
	if s := m.Stats; s != nil {
		b.steps.Add(s.Steps)
		b.spikes.Add(s.Spikes)
		b.deliveries.Add(s.Deliveries)
		b.queueDepth.SetMax(s.MaxQueueDepth)
		b.silentSteps.Add(s.SilentStepsSkipped)
	}
	for i := range m.Series {
		s := &m.Series[i]
		switch s.Name {
		case "active_per_step":
			b.active.Add(s.Sum())
		case "spikes_per_step":
			for _, v := range s.Values {
				b.stepSpikes.Observe(v)
			}
		case "messages_per_round":
			b.congestRounds.Add(int64(len(s.Values)))
		}
	}
	//lint:deterministic each key adds to its own pre-resolved counter; adds commute
	for k, v := range m.Counters {
		if c := b.counter(k); c != nil {
			c.Add(v)
		}
	}
	b.foldPerf(m.Perf)
	b.foldEnergy(m.Energy)
	return nil
}

// checkNonNegative reports the first negative value among those Fold
// adds: the stats totals, the counters with a live family, and the
// active_per_step samples. A registry counter only grows (Counter.Add
// panics on a negative delta) and a negative silent-step count would
// lower its gauge, so such a manifest — a pushed one, say — must not
// fold at all.
func (b *Bridge) checkNonNegative(m *telemetry.Manifest) error {
	if s := m.Stats; s != nil && min(s.Spikes, s.Deliveries, s.Steps, s.MaxQueueDepth, s.SilentStepsSkipped) < 0 {
		return fmt.Errorf("metrics: manifest stats carry a negative value: %+v", *s)
	}
	for _, k := range slices.Sorted(maps.Keys(m.Counters)) {
		if v := m.Counters[k]; v < 0 && b.counter(k) != nil {
			return fmt.Errorf("metrics: manifest counter %s is negative (%d)", k, v)
		}
	}
	for _, s := range m.Series {
		if s.Name == "active_per_step" && len(s.Values) > 0 && slices.Min(s.Values) < 0 {
			return fmt.Errorf("metrics: manifest series active_per_step has a negative value")
		}
	}
	return nil
}

// counter maps a manifest counter key (telemetry.Recorder's spelling)
// onto its canonical collector, or nil for keys with no live family.
func (b *Bridge) counter(key string) *Counter {
	switch key {
	case "distance_loads":
		return b.distOps[distance.KindLoad]
	case "distance_stores":
		return b.distOps[distance.KindStore]
	case "distance_ops":
		return b.distOps[distance.KindOp]
	case "distance_movement":
		return b.distMove
	case "congest_messages":
		return b.congestMessages
	case "congest_bits":
		return b.congestBits
	case "fleet_intra":
		return b.fleetIntra
	case "fleet_inter":
		return b.fleetInter
	}
	return nil
}

// foldPerf folds one spaa-perf/v1 report into the throughput families.
// Wall-derived quantities are recorded only when the report carries
// real wall data (deterministic reports have it zeroed — there is
// nothing meaningful to observe); queue occupancy always folds into the
// canonical queue-depth high-water gauge.
func (b *Bridge) foldPerf(r *perf.Report) {
	if r == nil {
		return
	}
	b.queueDepth.SetMax(r.MaxQueueDepth)
	if r.WallMS <= 0 {
		return
	}
	b.perfStepsPerSec.SetMax(int64(r.StepsPerSec))
	b.perfDelivPerSec.SetMax(int64(r.DeliveriesPerSec))
	for _, ph := range r.Phases {
		b.perfPhaseWall[perfPhaseIndex(ph.Name)].Observe(int64(ph.WallMS))
	}
	if r.AllocBytes > 0 {
		b.perfAllocBytes.Add(r.AllocBytes)
	}
	if r.AllocObjects > 0 {
		b.perfAllocObjects.Add(r.AllocObjects)
	}
	if r.GCCycles > 0 {
		b.perfGCCycles.Add(r.GCCycles)
	}
}

// foldEnergy folds one spaa-energy/v1 report into the energy families:
// the classic comparator total, and per-platform spiking totals plus
// advantage high-water marks. Rows are matched onto the bridge's fixed
// platform vocabulary; unknown platform names in remote manifests are
// dropped rather than growing series cardinality. Unpublished-tariff
// rows (SpikingMilliPJ 0) contribute nothing — their scrape lines stay
// at zero, the wire spelling of "-".
func (b *Bridge) foldEnergy(r *energy.Report) {
	if r == nil {
		return
	}
	if r.ClassicMilliPJ > 0 {
		b.energyClassic.Add(r.ClassicMilliPJ)
	}
	for _, row := range r.Platforms {
		for i, name := range b.energyPlatformNames {
			if name != row.Platform {
				continue
			}
			if row.SpikingMilliPJ > 0 {
				b.energySpiking[i].Add(row.SpikingMilliPJ)
			}
			b.energyAdvantage[i].SetMax(row.AdvantageMilli)
			break
		}
	}
}
