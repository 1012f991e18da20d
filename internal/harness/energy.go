package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// Energy benchmark tier: named, seeded workloads priced after the run
// from the engine's own snn.Stats, with the classic comparator's
// operation count taken on the same seeded instance. Each case's
// manifest carries the spaa-energy/v1 section — integral
// millipicojoules, wall-free by construction — so the committed
// BENCH_energy_<name>.json baselines are byte-reproducible and the
// `spaabench regress` comparison is exact by default.

// EnergyCase names one workload of the energy sweep.
type EnergyCase struct {
	// Name keys the case and its BENCH_energy_<Name>.json baseline.
	Name string
	// Kind selects the workload: "sssp" (Section 3 relay network vs
	// Dijkstra), "khop" (gate-level compiled TTL machine vs k-round
	// Bellman-Ford), "table1" (the Table 1 sweep's engine runs vs its
	// conventional op counts).
	Kind string
	// N and M are the vertex/edge targets; U bounds edge lengths; Seed
	// fixes the instance; K is the hop bound (khop and table1 kinds).
	N, M    int
	U, Seed int64
	K       int
}

// EnergyCases is the registry of energy workloads. Every priced
// quantity is a function of (Kind, N, M, U, Seed, K) and the Table 3
// tariffs alone, so the committed baselines hold across machines with
// zero tolerance.
var EnergyCases = []EnergyCase{
	{Name: "sssp_random_256", Kind: "sssp", N: 256, M: 1024, U: 8, Seed: 7},
	{Name: "khop_compiled_24", Kind: "khop", N: 24, M: 72, U: 3, Seed: 5, K: 4},
	{Name: "table1_48", Kind: "table1", N: 48, U: 8, Seed: 1, K: 4},
}

// EnergyCaseByName finds a case by name.
func EnergyCaseByName(name string) (EnergyCase, bool) {
	for _, c := range EnergyCases {
		if c.Name == name {
			return c, true
		}
	}
	return EnergyCase{}, false
}

// EnergyOptions configures one energy sweep execution.
type EnergyOptions struct {
	// Deterministic zeroes the manifest's wall-clock fields, making two
	// runs of the same case byte-identical (the energy section needs no
	// zeroing — it is wall-free by construction).
	Deterministic bool
}

// RunEnergyCase executes one energy case and returns its manifest with
// the spaa-energy/v1 section populated: the spiking side priced from
// the run's snn.Stats plus the netlist's load events, the classic
// comparator's operations counted on the same seeded instance, both
// under the Table 3 tariffs.
func RunEnergyCase(c EnergyCase, opts EnergyOptions) (*telemetry.Manifest, error) {
	man := telemetry.NewManifest("spaabench", "energy:"+c.Name)
	man.SetConfig("kind", c.Kind)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	start := time.Now()

	var stats snn.Stats
	var loadEvents, idleSteps, classicOps int64
	switch c.Kind {
	case "sssp":
		g := graph.RandomGnm(c.N, c.M, graph.Uniform(c.U), c.Seed, true)
		man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: c.Seed, Kind: c.Kind}
		res, err := core.SSSP(g, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("harness: energy case %s: %w", c.Name, err)
		}
		stats = res.Stats
		idleSteps = stats.SilentStepsSkipped
		man.Stats = telemetry.StatsFrom(stats)
		// Build phase: the O(m+n) graph-load charge, attributed apart
		// from the wavefront deliveries.
		loadEvents = res.LoadTime
		classicOps = classic.Dijkstra(g, 0).Ops
		man.Counters = map[string]int64{"dist_checksum": distChecksum(res.Dist)}
	case "khop":
		g := graph.RandomGnm(c.N, c.M, graph.Uniform(c.U), c.Seed, true)
		man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: c.Seed, Kind: c.Kind}
		ct := core.CompileKHopTTL(g, 0, c.K)
		dist, st := ct.Run()
		stats = st
		idleSteps = stats.SilentStepsSkipped
		man.Stats = telemetry.StatsFrom(stats)
		// Build phase: Theorem 4.2's O(m log k) circuit-loading charge
		// (m·λ synapse programs) for the compiled TTL machine.
		loadEvents = int64(g.M()) * int64(ct.Lambda)
		classicOps = classic.BellmanFordKHop(g, 0, c.K, false).Relaxations
		man.Counters = map[string]int64{"dist_checksum": distChecksum(dist)}
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
		return nil, fmt.Errorf("harness: unknown energy case kind %q", c.Kind)
	}

	man.Energy = energy.NewReport(stats.Spikes, stats.Deliveries, loadEvents, idleSteps,
		stats.Steps, classicOps, energy.Tariffs())
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	man.Finalize(start, time.Since(start), telemetry.ManifestOptions{Deterministic: opts.Deterministic})
	return man, nil
}

// EnergySection renders the experiment report's E20 energy block from
// one run: spiking SSSP on a seeded Gnm instance priced from its
// snn.Stats after the run, Dijkstra's operations counted on the same
// instance, and every Table 3 platform rendered — platforms without a
// published pJ/spike figure as "-", never an advantage of 0 divided
// through a table row.
func EnergySection(seed int64) string {
	g := graph.RandomGnm(256, 1024, graph.Uniform(8), seed, true)
	spk := mustSSSP(g, 0, -1)
	st := spk.Stats
	r := energy.NewReport(st.Spikes, st.Deliveries, spk.LoadTime, st.SilentStepsSkipped,
		st.Steps, classic.Dijkstra(g, 0).Ops, energy.Tariffs())

	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	w("Workload: spiking SSSP on n=%d, m=%d, priced after the run from its\n", g.N(), g.M())
	w("snn.Stats (%d spikes, %d deliveries, %d load events, %d idle steps); each\n",
		r.Spikes, r.Deliveries, r.LoadEvents, r.IdleSteps)
	w("synaptic event charged at the platform's Table 3 pJ/spike, each of Dijkstra's %d\n", r.ClassicOps)
	w("heap/relax operations charged one CPU cycle at the Table 3 CPU row's\n")
	w("power over clock (≈ 8.1 nJ — generous to the CPU), for a classic total\n")
	w("of %.3f µJ.\n\n", energy.JoulesFromMilliPJ(r.ClassicMilliPJ)*1e6)
	w("| platform | spiking µJ | energy advantage |\n|---|---|---|\n")
	for _, row := range r.Platforms {
		spikingUJ := "-"
		if row.SpikingMilliPJ > 0 {
			spikingUJ = fmt.Sprintf("%.3f", energy.JoulesFromMilliPJ(row.SpikingMilliPJ)*1e6)
		}
		w("| %s | %s | %s |\n", row.Platform, spikingUJ, energy.FormatAdvantage(row.AdvantageMilli))
	}
	var phases []string
	for _, p := range r.Phases {
		phases = append(phases, fmt.Sprintf("%s %.3f µJ (%d events)",
			p.Phase, energy.JoulesFromMilliPJ(p.MilliPJ)*1e6, p.Events))
	}
	w("\nPhase attribution at the %s tariff: %s.\n", energy.ReferencePlatform, strings.Join(phases, ", "))
	w("\nOrders-of-magnitude gaps for the ASIC platforms, as the abstract claims\n")
	w("(SpiNNaker 1's ARM-based design is the documented exception; SpiNNaker 2\n")
	w("publishes no figure and renders as \"-\").\n\n")
	w("Engine telemetry for the same run — the event-driven engine touches only\n")
	w("non-silent steps, so skipped steps and the event-queue high-water mark\n")
	w("are the simulator's own cost profile:\n\n")
	w("- %s\n", EngineReport(spk.Stats))
	return b.String()
}

// distChecksum sums the finite distances (the result-integrity counter
// `spaabench regress` compares alongside the joule totals).
func distChecksum(dist []int64) int64 {
	var sum int64
	for _, d := range dist {
		if d < graph.Inf {
			sum += d
		}
	}
	return sum
}

// RenderEnergyTable formats case manifests as the `spaabench energy`
// advantage table: one row per case with both sides' energy in
// microjoules, the build/wavefront phase split of the spiking total
// (reference tariff), and the per-platform advantage columns ("-" for
// platforms without a published tariff).
func RenderEnergyTable(mans []*telemetry.Manifest) string {
	names := energy.PlatformNames()
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %14s %14s %17s", "case", "classic µJ", "spiking µJ", "build/wave µJ")
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
		fmt.Fprintf(&b, "%-18s %14s %14s %17s", strings.TrimPrefix(m.Command, "energy:"), classicUJ, spikingUJ, phaseUJ)
		for _, a := range adv {
			fmt.Fprintf(&b, " %12s", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}
