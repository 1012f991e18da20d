package energy

import "fmt"

// Schema identifies the energy-report JSON format embedded in run
// manifests (the `energy` key of spaa-run-manifest/v1 documents); bump
// the suffix on breaking changes.
const Schema = "spaa-energy/v1"

// PlatformEnergy is one platform row of a report: the run priced at
// that platform's tariff, against the classic comparator. Platforms
// that publish no energy figure carry zeros and render as "-" — an
// AdvantageMilli of 0 always means "unpublished", never "measured 0x".
type PlatformEnergy struct {
	Platform string `json:"platform"`
	// DeliveryMilliPJ echoes the tariff the row was priced at, so a
	// baseline diff distinguishes "the workload changed" from "the
	// tariff changed".
	DeliveryMilliPJ int64 `json:"delivery_millipj"`
	// SpikingMilliPJ is the run's counted events priced at this
	// platform's tariff.
	SpikingMilliPJ int64 `json:"spiking_millipj"`
	// AdvantageMilli is classic/spiking × 1000, integral (8_139 means
	// 8.139x). Zero when the platform publishes no tariff.
	AdvantageMilli int64 `json:"advantage_milli"`
}

// PhaseEnergy attributes one phase of a priced run — "build" (circuit
// loading / synapse programming), "wavefront" (spikes and deliveries of
// the event-driven sweep), "idle" (silence-skipped steps) — priced at
// the reference platform's tariff. The three MilliPJ values sum to the
// reference platform's SpikingMilliPJ row, so the split answers "where
// do the joules go" without changing the totals the gate compares.
type PhaseEnergy struct {
	Phase   string `json:"phase"`
	Events  int64  `json:"events"`
	MilliPJ int64  `json:"millipj"`
}

// Phase names of the per-phase attribution, in report order.
const (
	PhaseBuild     = "build"
	PhaseWavefront = "wavefront"
	PhaseIdle      = "idle"
)

// Report is the spaa-energy/v1 manifest section. Every field is an
// integral function of the seeded workload and the Table 3 tariffs —
// no wall-clock data exists anywhere in it, so it is byte-reproducible
// by construction and compared exactly by the energy gate (unlike
// spaa-perf/v1, which needs its wall half zeroed).
type Report struct {
	Schema string `json:"schema"`

	// Counted event totals (the run's snn.Stats). LoadEvents are the
	// build-phase synapse-programming events (the netlist's load
	// charge), kept apart from wavefront Deliveries.
	Spikes     int64 `json:"spikes"`
	Deliveries int64 `json:"deliveries"`
	Steps      int64 `json:"steps"`
	IdleSteps  int64 `json:"idle_steps"`
	LoadEvents int64 `json:"load_events"`

	// Phases splits the reference platform's spiking total into
	// build/wavefront/idle attributions (see PhaseEnergy).
	Phases []PhaseEnergy `json:"phases"`

	// Classic comparator: operation count (the classic run's ops), the CPU
	// per-op tariff it was priced at, and the resulting total.
	ClassicOps       int64 `json:"classic_ops"`
	ClassicOpMilliPJ int64 `json:"classic_op_millipj"`
	ClassicMilliPJ   int64 `json:"classic_millipj"`

	// Platforms prices the same run under every non-CPU Table 3 tariff.
	Platforms []PlatformEnergy `json:"platforms"`
}

// NewReport prices a run's counted events under the given tariffs: the
// spiking side at every tariff in ts (build-phase load events charged at
// each platform's delivery tariff alongside the wavefront), the classic
// side at the CPU op tariff. Pass Tariffs() for the Table 3 platform
// set. The spiking counts are the run's snn.Stats (idle steps are its
// SilentStepsSkipped), read after the run.
func NewReport(spikes, deliveries, loadEvents, idleSteps, steps, classicOps int64, ts []Tariff) *Report {
	r := &Report{
		Schema:           Schema,
		Spikes:           spikes,
		Deliveries:       deliveries,
		Steps:            steps,
		IdleSteps:        idleSteps,
		LoadEvents:       loadEvents,
		ClassicOps:       classicOps,
		ClassicOpMilliPJ: CPUOpMilliPJ(),
	}
	r.ClassicMilliPJ = classicOps * r.ClassicOpMilliPJ
	ref := referenceIn(ts)
	r.Phases = []PhaseEnergy{
		{Phase: PhaseBuild, Events: loadEvents, MilliPJ: loadEvents * ref.DeliveryMilliPJ},
		{Phase: PhaseWavefront, Events: spikes + deliveries,
			MilliPJ: spikes*ref.SpikeMilliPJ + deliveries*ref.DeliveryMilliPJ},
		{Phase: PhaseIdle, Events: idleSteps, MilliPJ: idleSteps * ref.IdleStepMilliPJ},
	}
	for _, t := range ts {
		row := PlatformEnergy{Platform: t.Platform, DeliveryMilliPJ: t.DeliveryMilliPJ}
		if !t.Unpublished() {
			row.SpikingMilliPJ = t.Charge(spikes, deliveries, idleSteps) + loadEvents*t.DeliveryMilliPJ
			if row.SpikingMilliPJ > 0 {
				row.AdvantageMilli = r.ClassicMilliPJ * 1000 / row.SpikingMilliPJ
			}
		}
		r.Platforms = append(r.Platforms, row)
	}
	return r
}

// referenceIn picks the ReferencePlatform tariff out of ts (so scaled
// tariff sets keep the phase attribution consistent with their platform
// rows), falling back to the Table 3 reference tariff.
func referenceIn(ts []Tariff) Tariff {
	for _, t := range ts {
		if t.Platform == ReferencePlatform {
			return t
		}
	}
	return ReferenceTariff()
}

// PlatformRow finds a platform's row (nil when absent).
func (r *Report) PlatformRow(name string) *PlatformEnergy {
	if r == nil {
		return nil
	}
	for i := range r.Platforms {
		if r.Platforms[i].Platform == name {
			return &r.Platforms[i]
		}
	}
	return nil
}

// PhaseRow finds a phase attribution row by name (nil when absent).
func (r *Report) PhaseRow(phase string) *PhaseEnergy {
	if r == nil {
		return nil
	}
	for i := range r.Phases {
		if r.Phases[i].Phase == phase {
			return &r.Phases[i]
		}
	}
	return nil
}

// ReferenceMilliPJ returns the spiking energy on the reference platform
// (0 when the report carries no such row).
func (r *Report) ReferenceMilliPJ() int64 {
	if row := r.PlatformRow(ReferencePlatform); row != nil {
		return row.SpikingMilliPJ
	}
	return 0
}

// BestAdvantageMilli returns the largest advantage across platform rows
// (0 when no platform publishes a tariff).
func (r *Report) BestAdvantageMilli() int64 {
	if r == nil {
		return 0
	}
	var best int64
	for _, row := range r.Platforms {
		if row.AdvantageMilli > best {
			best = row.AdvantageMilli
		}
	}
	return best
}

// FormatAdvantage renders an integral milli-advantage for tables:
// "8139.5x", or "-" for the unpublished-tariff case.
func FormatAdvantage(advMilli int64) string {
	if advMilli <= 0 {
		return "-"
	}
	return fmt.Sprintf("%d.%01dx", advMilli/1000, (advMilli%1000)/100)
}
