package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// Perf benchmark tier: named, seeded SSSP workloads whose manifests are
// committed as BENCH_perf_<name>.json baselines and tracked run over run
// by `spaabench perf`. Each case runs the full vertical — graph
// generation + netlist build (phase "build"), spiking simulation
// (phase "run"), result digestion (phase "report") — under a
// perf.Tracker, so the manifest's spaa-perf/v1 section carries both the
// seed-determined counters the gate compares exactly and the wall-clock
// rates the trend table displays.

// PerfCase names one benchmark workload.
type PerfCase struct {
	// Name keys the case and its BENCH_perf_<Name>.json baseline.
	Name string
	// Tier groups cases by scale: "smoke" (CI negative test), "small"
	// (CI gate, ~10^5 vertices), "large" (local trend tracking).
	Tier string
	// Kind selects the generator: "random" (connected Gnm), "grid"
	// (2D lattice), "scalefree" (preferential attachment).
	Kind string
	// N and M are the vertex/edge targets (M is ignored for grids; the
	// side is derived from N).
	N, M int
	// U bounds edge lengths (Uniform(U)); Seed fixes the instance.
	U, Seed int64
}

// PerfCases is the registry of benchmark workloads. Counter totals are
// functions of (Kind, N, M, U, Seed) alone, so the committed baselines
// hold across machines; only wall-derived fields vary.
var PerfCases = []PerfCase{
	{Name: "sssp_random_2k", Tier: "smoke", Kind: "random", N: 2_000, M: 8_000, U: 8, Seed: 7},
	{Name: "sssp_random_100k", Tier: "small", Kind: "random", N: 100_000, M: 400_000, U: 8, Seed: 11},
	{Name: "sssp_grid_100k", Tier: "small", Kind: "grid", N: 100_000, U: 4, Seed: 3},
	{Name: "sssp_scalefree_100k", Tier: "small", Kind: "scalefree", N: 100_000, M: 400_000, U: 8, Seed: 13},
	{Name: "sssp_random_1m", Tier: "large", Kind: "random", N: 1_000_000, M: 4_000_000, U: 8, Seed: 17},
}

// PerfCasesForTier selects cases by tier ("all" selects every case).
func PerfCasesForTier(tier string) []PerfCase {
	if tier == "all" {
		return PerfCases
	}
	var out []PerfCase
	for _, c := range PerfCases {
		if c.Tier == tier {
			out = append(out, c)
		}
	}
	return out
}

// PerfCaseByName finds a case by name.
func PerfCaseByName(name string) (PerfCase, bool) {
	for _, c := range PerfCases {
		if c.Name == name {
			return c, true
		}
	}
	return PerfCase{}, false
}

// perfGraph instantiates a case's graph.
func perfGraph(c PerfCase) *graph.Graph {
	switch c.Kind {
	case "grid":
		// A square-ish lattice with at least N vertices.
		side := 1
		for side*side < c.N {
			side++
		}
		return graph.Grid(side, side, graph.Uniform(c.U), c.Seed)
	case "scalefree":
		deg := c.M / c.N
		if deg < 1 {
			deg = 1
		}
		return graph.PreferentialAttachment(c.N, deg, graph.Uniform(c.U), c.Seed)
	default:
		return graph.RandomGnm(c.N, c.M, graph.Uniform(c.U), c.Seed, true)
	}
}

// PerfOptions configures one benchmark execution.
type PerfOptions struct {
	// Deterministic zeroes every wall-clock field of the manifest
	// (including the perf section's wall-derived half), making two runs
	// of the same case byte-identical — the mode baselines are written
	// in.
	Deterministic bool
	// SlowdownMS injects an artificial sleep into the "run" phase — the
	// CI negative test uses it to prove the wall band actually trips.
	SlowdownMS int
}

// RunPerfCase executes one benchmark case and returns its manifest with
// the spaa-perf/v1 section populated. The manifest's counters carry a
// distance checksum and reach count, so a perf regression that changes
// *results* (not just speed) is caught by the same gate.
func RunPerfCase(c PerfCase, opts PerfOptions) (*telemetry.Manifest, error) {
	tracker := perf.NewTracker()
	man := telemetry.NewManifest("spaabench", "perf:"+c.Name)
	man.SetConfig("tier", c.Tier)
	man.SetConfig("kind", c.Kind)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	start := time.Now()

	tracker.Phase("build")
	g := perfGraph(c)
	man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: c.Seed, Kind: c.Kind}
	net := core.BuildSSSP(g)

	tracker.Phase("run")
	res, err := net.Run(0, -1)
	if err != nil {
		return nil, fmt.Errorf("harness: perf case %s: %w", c.Name, err)
	}
	if opts.SlowdownMS > 0 {
		time.Sleep(time.Duration(opts.SlowdownMS) * time.Millisecond)
	}

	tracker.Phase("report")
	var reached, checksum int64
	for _, d := range res.Dist {
		if d < graph.Inf {
			reached++
			checksum += d
		}
	}
	man.Counters = map[string]int64{
		"dist_checksum": checksum,
		"reached":       reached,
		"neurons":       int64(res.Neurons),
		"synapses":      int64(res.Synapses),
	}
	man.Stats = telemetry.StatsFrom(res.Stats)
	tracker.SetTotals(res.Stats.Steps, res.Stats.Spikes, res.Stats.Deliveries, res.Stats.MaxQueueDepth)

	man.Perf = tracker.Report(opts.Deterministic)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	man.Finalize(start, time.Since(start), telemetry.ManifestOptions{Deterministic: opts.Deterministic})
	return man, nil
}

// PerfTolerance bounds the accepted baseline deviation.
type PerfTolerance struct {
	// Rel is the relative band for counter-derived quantities, passed to
	// telemetry.DiffManifests (zero demands exact equality —
	// counter-derived fields are seed-determined, so zero is the
	// default).
	Rel float64
	// Wall is the accepted relative slowdown of total wall time against
	// the baseline (0.5 accepts up to 1.5× the baseline). Applied only
	// when both manifests carry nonzero wall measurements — baselines
	// written with -deterministic have none, so the wall band is then
	// vacuously satisfied.
	Wall float64
}

// PerfDelta is the comparison of one fresh case run against its
// baseline.
type PerfDelta struct {
	Name        string
	Base, Fresh *telemetry.Manifest
	// Drifts lists counter-derived quantities outside tolerance.
	Drifts []telemetry.Drift
	// WallViolation reports the fresh run exceeding the wall band.
	WallViolation bool
	// MissingBaseline reports that no baseline manifest was supplied.
	MissingBaseline bool
}

// OK reports whether the fresh run is within tolerance of its baseline.
func (d *PerfDelta) OK() bool {
	return !d.MissingBaseline && !d.WallViolation && len(d.Drifts) == 0
}

// ComparePerf diffs a fresh case manifest against its baseline:
// counter-derived fields through telemetry.DiffManifests under tol.Rel,
// total wall time within the tol.Wall band when both sides measured it.
func ComparePerf(name string, base, fresh *telemetry.Manifest, tol PerfTolerance) *PerfDelta {
	d := &PerfDelta{Name: name, Base: base, Fresh: fresh}
	if base == nil {
		d.MissingBaseline = true
		return d
	}
	d.Drifts = telemetry.DiffManifests(base, fresh, telemetry.Tolerance{Rel: tol.Rel})
	if base.Perf != nil && fresh.Perf != nil &&
		base.Perf.WallMS > 0 && fresh.Perf.WallMS > 0 &&
		fresh.Perf.WallMS > base.Perf.WallMS*(1+tol.Wall) {
		d.WallViolation = true
	}
	return d
}

// RenderPerfTrend formats deltas as the `spaabench perf` trend table:
// one row per case with the counter-derived totals, the wall times on
// both sides, and the verdict.
func RenderPerfTrend(deltas []*PerfDelta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %14s %10s %12s %12s  %s\n",
		"case", "steps", "deliveries", "del/step", "base ms", "fresh ms", "status")
	for _, d := range deltas {
		steps, deliveries, ratio := "-", "-", "-"
		baseMS, freshMS := "-", "-"
		if d.Fresh != nil && d.Fresh.Perf != nil {
			p := d.Fresh.Perf
			steps = fmt.Sprintf("%d", p.Steps)
			deliveries = fmt.Sprintf("%d", p.Deliveries)
			ratio = fmt.Sprintf("%d.%03d", p.DeliveriesPerStepMilli/1000, p.DeliveriesPerStepMilli%1000)
			if p.WallMS > 0 {
				freshMS = fmt.Sprintf("%.1f", p.WallMS)
			}
		}
		if d.Base != nil && d.Base.Perf != nil && d.Base.Perf.WallMS > 0 {
			baseMS = fmt.Sprintf("%.1f", d.Base.Perf.WallMS)
		}
		status := "ok"
		switch {
		case d.MissingBaseline:
			status = "NO BASELINE"
		case d.WallViolation && len(d.Drifts) > 0:
			status = fmt.Sprintf("DRIFT (%d) + WALL", len(d.Drifts))
		case d.WallViolation:
			status = "WALL EXCEEDED"
		case len(d.Drifts) > 0:
			status = fmt.Sprintf("DRIFT (%d)", len(d.Drifts))
		}
		fmt.Fprintf(&b, "%-22s %12s %14s %10s %12s %12s  %s\n",
			d.Name, steps, deliveries, ratio, baseMS, freshMS, status)
	}
	return b.String()
}
