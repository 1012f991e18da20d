package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// Benchmark cases: named, seeded workloads whose manifests `spaabench
// bench -out` writes as the committed BENCH_<name>.json baselines and
// `spaabench regress` re-runs and gates. One run feeds every section a
// case writes: an sssp case times its relay network by phase under a
// perf.Tracker (the spaa-perf/v1 section) and prices the same run's
// snn.Stats against Dijkstra on the same instance (the spaa-energy/v1
// section). Every gated quantity is a function of the case parameters
// and the Table 3 tariffs alone, so the baselines hold across machines;
// only the perf section's wall-derived half varies, and a deterministic
// run zeroes it.

// Case names one benchmark workload.
type Case struct {
	// Name keys the case and its BENCH_<Name>.json baseline.
	Name string
	// Tier groups cases by scale: "smoke" (fast enough for unit tests
	// and the experiment report), "small" (~10^5 vertices), "large"
	// (10^6).
	Tier string
	// Kind selects the workload: "sssp" (Section 3 relay network vs
	// Dijkstra), "khop" (gate-level compiled TTL machine vs k-round
	// Bellman-Ford), "table1" (the Table 1 sweep's engine runs vs its
	// conventional op counts).
	Kind string
	// Graph selects the generator: "random" (connected Gnm), "grid" (2D
	// lattice), "scalefree" (preferential attachment). Empty for table1,
	// whose sweep generates its own instances.
	Graph string
	// N and M are the vertex/edge targets (M is ignored for grids; the
	// side is derived from N). U bounds edge lengths (Uniform(U)); Seed
	// fixes the instance; K is the hop bound (khop and table1 kinds).
	N, M    int
	U, Seed int64
	K       int
}

// Cases is the registry of benchmark workloads.
var Cases = []Case{
	{Name: "sssp_random_256", Tier: "smoke", Kind: "sssp", Graph: "random", N: 256, M: 1024, U: 8, Seed: 7},
	{Name: "khop_compiled_24", Tier: "smoke", Kind: "khop", Graph: "random", N: 24, M: 72, U: 3, Seed: 5, K: 4},
	{Name: "table1_48", Tier: "smoke", Kind: "table1", N: 48, U: 8, Seed: 1, K: 4},
	{Name: "sssp_random_100k", Tier: "small", Kind: "sssp", Graph: "random", N: 100_000, M: 400_000, U: 8, Seed: 11},
	{Name: "sssp_grid_100k", Tier: "small", Kind: "sssp", Graph: "grid", N: 100_000, U: 4, Seed: 3},
	{Name: "sssp_scalefree_100k", Tier: "small", Kind: "sssp", Graph: "scalefree", N: 100_000, M: 400_000, U: 8, Seed: 13},
	{Name: "sssp_random_1m", Tier: "large", Kind: "sssp", Graph: "random", N: 1_000_000, M: 4_000_000, U: 8, Seed: 17},
}

// CasesForTier selects cases by tier ("all" selects every case).
func CasesForTier(tier string) []Case {
	if tier == "all" {
		return Cases
	}
	var out []Case
	for _, c := range Cases {
		if c.Tier == tier {
			out = append(out, c)
		}
	}
	return out
}

// CaseByName finds a case by name.
func CaseByName(name string) (Case, bool) {
	for _, c := range Cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// instance generates a case's graph and records it on the manifest.
func (c Case) instance(man *telemetry.Manifest) *graph.Graph {
	var g *graph.Graph
	switch c.Graph {
	case "grid":
		// A square-ish lattice with at least N vertices.
		side := 1
		for side*side < c.N {
			side++
		}
		g = graph.Grid(side, side, graph.Uniform(c.U), c.Seed)
	case "scalefree":
		deg := c.M / c.N
		if deg < 1 {
			deg = 1
		}
		g = graph.PreferentialAttachment(c.N, deg, graph.Uniform(c.U), c.Seed)
	default:
		g = graph.RandomGnm(c.N, c.M, graph.Uniform(c.U), c.Seed, true)
	}
	man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: c.Seed, Kind: c.Graph}
	return g
}

// RunCase executes one case and returns its manifest. An sssp case
// builds and runs the relay network once under a perf.Tracker (phases
// build, run, report) and writes the stats, the result-integrity
// counters dist_checksum/reached/neurons/synapses, the perf section and
// the energy section; Dijkstra's operation count for the energy section
// is taken after the tracker stops, outside the timed phases. A khop
// case writes stats, dist_checksum and the energy section; a table1
// case writes the energy section alone. With deterministic set every
// wall-clock field is zeroed, so two runs encode byte-identically — the
// mode baselines are written in.
func RunCase(c Case, deterministic bool) (*telemetry.Manifest, error) {
	man := telemetry.NewManifest("spaabench", "bench:"+c.Name)
	man.SetConfig("tier", c.Tier)
	man.SetConfig("kind", c.Kind)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	start := time.Now()

	var stats snn.Stats
	var loadEvents, idleSteps, classicOps int64
	switch c.Kind {
	case "sssp":
		tracker := perf.NewTracker()
		tracker.Phase("build")
		g := c.instance(man)
		net := core.BuildSSSP(g)

		tracker.Phase("run")
		res, err := net.Run(0, -1)
		if err != nil {
			return nil, fmt.Errorf("harness: case %s: %w", c.Name, err)
		}

		tracker.Phase("report")
		reached, checksum := distSummary(res.Dist)
		man.Counters = map[string]int64{
			"dist_checksum": checksum,
			"reached":       reached,
			"neurons":       int64(res.Neurons),
			"synapses":      int64(res.Synapses),
		}
		stats = res.Stats
		man.Stats = telemetry.StatsFrom(stats)
		tracker.SetTotals(stats.Steps, stats.Spikes, stats.Deliveries, stats.MaxQueueDepth)
		man.Perf = tracker.Report(deterministic)

		// Build phase of the energy account: the O(m+n) graph-load
		// charge, attributed apart from the wavefront deliveries.
		loadEvents = res.LoadTime
		idleSteps = stats.SilentStepsSkipped
		classicOps = classic.Dijkstra(g, 0).Ops
	case "khop":
		g := c.instance(man)
		ct := core.CompileKHopTTL(g, 0, c.K)
		dist, st := ct.Run()
		stats = st
		idleSteps = stats.SilentStepsSkipped
		man.Stats = telemetry.StatsFrom(stats)
		// Build phase: Theorem 4.2's O(m log k) circuit-loading charge
		// (m·λ synapse programs) for the compiled TTL machine.
		loadEvents = int64(g.M()) * int64(ct.Lambda)
		classicOps = classic.BellmanFordKHop(g, 0, c.K, false).Relaxations
		_, checksum := distSummary(dist)
		man.Counters = map[string]int64{"dist_checksum": checksum}
	case "table1":
		// The Table 1 sweep's engine-level SSSP runs are priced from the
		// stats the report carries; the conventional side of the same
		// regime (Dijkstra op counts, movement ignored) is the classic
		// comparator. This kind charges no idle steps and records no
		// manifest stats, as its committed baseline was written.
		rep := RunTable1(Table1Config{
			Sizes: []int{c.N}, Density: 4, U: c.U, K: c.K, C: 4,
			Seed: c.Seed, SkipMovement: true,
		})
		for _, st := range rep.SSSPStats {
			stats.Spikes += st.Spikes
			stats.Deliveries += st.Deliveries
			stats.Steps += st.Steps
		}
		for _, row := range rep.Rows {
			if !row.WithMovement && row.Problem == "SSSP" && row.Regime == "pseudopolynomial" {
				classicOps += int64(row.Conventional)
			}
		}
	default:
		return nil, fmt.Errorf("harness: unknown case kind %q", c.Kind)
	}

	man.Energy = energy.NewReport(stats.Spikes, stats.Deliveries, loadEvents, idleSteps,
		stats.Steps, classicOps, energy.Tariffs())
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	man.Finalize(start, time.Since(start), telemetry.ManifestOptions{Deterministic: deterministic})
	return man, nil
}

// distSummary counts the reached vertices and sums their distances (the
// result-integrity counters `spaabench regress` compares alongside the
// cost totals).
func distSummary(dist []int64) (reached, checksum int64) {
	for _, d := range dist {
		if d < graph.Inf {
			reached++
			checksum += d
		}
	}
	return reached, checksum
}

// RenderPerfTrend formats case manifests as the `spaabench bench` trend
// table: one row per case with the counter-derived totals and the
// measured wall time ("-" under -deterministic, and every column "-"
// for a case without a perf section).
func RenderPerfTrend(mans []*telemetry.Manifest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %14s %10s %12s\n", "case", "steps", "deliveries", "del/step", "wall ms")
	for _, m := range mans {
		steps, deliveries, ratio, wallMS := "-", "-", "-", "-"
		if p := m.Perf; p != nil {
			steps = fmt.Sprintf("%d", p.Steps)
			deliveries = fmt.Sprintf("%d", p.Deliveries)
			ratio = fmt.Sprintf("%d.%03d", p.DeliveriesPerStepMilli/1000, p.DeliveriesPerStepMilli%1000)
			if p.WallMS > 0 {
				wallMS = fmt.Sprintf("%.1f", p.WallMS)
			}
		}
		fmt.Fprintf(&b, "%-22s %12s %14s %10s %12s\n",
			strings.TrimPrefix(m.Command, "bench:"), steps, deliveries, ratio, wallMS)
	}
	return b.String()
}

// RenderEnergyTable formats case manifests as the `spaabench bench`
// advantage table: one row per case with both sides' energy in
// microjoules, the build/wavefront phase split of the spiking total
// (reference tariff), and the per-platform advantage columns ("-" for
// platforms without a published tariff). The case column is at least 18
// characters wide, and wider when a case name needs it.
func RenderEnergyTable(mans []*telemetry.Manifest) string {
	names := energy.PlatformNames()
	width := 18
	for _, m := range mans {
		width = max(width, len(strings.TrimPrefix(m.Command, "bench:")))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %14s %14s %17s", width, "case", "classic µJ", "spiking µJ", "build/wave µJ")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", n)
	}
	b.WriteString("\n")
	for _, m := range mans {
		classicUJ, spikingUJ, phaseUJ := "-", "-", "-"
		adv := make([]string, len(names))
		for i := range adv {
			adv[i] = "-"
		}
		if r := m.Energy; r != nil {
			classicUJ = fmt.Sprintf("%.3f", energy.JoulesFromMilliPJ(r.ClassicMilliPJ)*1e6)
			if ref := r.ReferenceMilliPJ(); ref > 0 {
				spikingUJ = fmt.Sprintf("%.3f", energy.JoulesFromMilliPJ(ref)*1e6)
			}
			if bp, wp := r.PhaseRow(energy.PhaseBuild), r.PhaseRow(energy.PhaseWavefront); bp != nil && wp != nil {
				phaseUJ = fmt.Sprintf("%.3f/%.3f",
					energy.JoulesFromMilliPJ(bp.MilliPJ)*1e6,
					energy.JoulesFromMilliPJ(wp.MilliPJ)*1e6)
			}
			for i, n := range names {
				if row := r.PlatformRow(n); row != nil {
					adv[i] = energy.FormatAdvantage(row.AdvantageMilli)
				}
			}
		}
		fmt.Fprintf(&b, "%-*s %14s %14s %17s", width, strings.TrimPrefix(m.Command, "bench:"), classicUJ, spikingUJ, phaseUJ)
		for _, a := range adv {
			fmt.Fprintf(&b, " %12s", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}
