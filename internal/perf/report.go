package perf

// Schema identifies the perf-report JSON format embedded in run
// manifests (the `perf` key of spaa-run-manifest/v1 documents); bump
// the suffix on breaking changes.
const Schema = "spaa-perf/v1"

// PhaseReport is one named span of a tracked run. Phase names are drawn
// from a small fixed vocabulary (build, run, report) so downstream
// metric labels stay bounded.
type PhaseReport struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// Report is the spaa-perf/v1 manifest section. Fields split into two
// determinism classes:
//
//   - counter-derived (Steps … DeliveriesPerStepMilli): functions of the
//     seeded workload alone, byte-stable across machines, compared
//     exactly by `spaabench regress`;
//   - wall-derived (WallMS, rates, per-phase times, alloc/GC deltas):
//     real measurements that vary run to run, never compared against a
//     baseline and zeroed entirely under deterministic finalization.
type Report struct {
	Schema string `json:"schema"`

	// Counter-derived totals (from snn.Stats).
	Steps         int64 `json:"steps"`
	Spikes        int64 `json:"spikes"`
	Deliveries    int64 `json:"deliveries"`
	MaxQueueDepth int64 `json:"max_queue_depth"`
	// DeliveriesPerStepMilli is deliveries/step ×1000, kept integral so
	// the gate can demand exact equality without float comparison.
	DeliveriesPerStepMilli int64 `json:"deliveries_per_step_milli"`

	// Wall-derived throughput (zero under deterministic finalization).
	WallMS           float64       `json:"wall_ms"`
	StepsPerSec      float64       `json:"steps_per_sec"`
	DeliveriesPerSec float64       `json:"deliveries_per_sec"`
	Phases           []PhaseReport `json:"phases,omitempty"`

	// Runtime deltas between the bracketing MemStats snapshots (zero
	// under deterministic finalization — GC timing is machine noise).
	AllocObjects int64 `json:"alloc_objects"`
	AllocBytes   int64 `json:"alloc_bytes"`
	HeapBytes    int64 `json:"heap_bytes"`
	GCCycles     int64 `json:"gc_cycles"`
	GCPauseNS    int64 `json:"gc_pause_ns"`
}

// ZeroWallClock clears every wall-derived and runtime-delta field while
// keeping the counter-derived fields and the phase *names* (with zero
// times), so a deterministic report still documents the run's shape and
// encodes byte-identically across repetitions and machines.
func (r *Report) ZeroWallClock() {
	if r == nil {
		return
	}
	r.WallMS = 0
	r.StepsPerSec = 0
	r.DeliveriesPerSec = 0
	for i := range r.Phases {
		r.Phases[i].WallMS = 0
	}
	r.AllocObjects = 0
	r.AllocBytes = 0
	r.HeapBytes = 0
	r.GCCycles = 0
	r.GCPauseNS = 0
}
