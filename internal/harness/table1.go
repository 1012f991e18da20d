package harness

import (
	"fmt"
	"strings"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/crossbar"
	"repro/internal/distance"
	"repro/internal/graph"
	"repro/internal/snn"
)

// Table1Config parameterizes the Table 1 reproduction sweep.
type Table1Config struct {
	// Sizes is the list of vertex counts (each graph has Density·n edges).
	Sizes []int
	// Density is edges per vertex.
	Density int
	// U is the maximum edge length.
	U int64
	// K is the hop bound for the k-hop rows.
	K int
	// C is the register count of the DISTANCE machine.
	C int
	// Seed drives workload generation.
	Seed int64
	// SkipMovement skips the DISTANCE/crossbar measurements (they carry
	// Θ(n²) crossbar networks and are the slow half).
	SkipMovement bool
	// DistanceProbe, when non-nil, observes every DISTANCE-machine
	// primitive of the movement half (spaabench table1 -metrics).
	DistanceProbe distance.Probe
}

// DefaultTable1Config returns the sweep used by the checked-in
// EXPERIMENTS.md.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Sizes:   []int{64, 128, 256, 512},
		Density: 4,
		U:       8,
		K:       8,
		C:       4,
		Seed:    1,
	}
}

// Table1Row is one measured (problem, regime, movement, size) cell.
type Table1Row struct {
	Problem      string
	Regime       string
	WithMovement bool
	N, M, K      int
	L            int64 // largest finite distance (pseudo regimes)
	// Conventional and Neuromorphic are the measured cost quantities
	// (operation counts / movement for conventional; spiking time +
	// loading charge for neuromorphic).
	Conventional float64
	Neuromorphic float64
	// Advantage is Conventional/Neuromorphic.
	Advantage float64
	// PredictedAdvantage is the cost-model (Table 1 formula) ratio at the
	// same parameters.
	PredictedAdvantage float64
}

// Table1Report aggregates the sweep with per-experiment growth exponents.
type Table1Report struct {
	Config Table1Config
	Rows   []Table1Row
	// SSSPStats holds the engine statistics of the spiking SSSP run at
	// each size, in Config.Sizes order (the energy sweep prices them).
	SSSPStats []snn.Stats
}

// RunTable1 executes the Table 1 reproduction sweep: for every size it
// generates a random graph, runs the conventional baselines (operation
// counts; DISTANCE movement when WithMovement) and the spiking algorithms
// (simulated time + loading charge; crossbar-embedded when WithMovement),
// and records measured against predicted advantage ratios.
func RunTable1(cfg Table1Config) *Table1Report {
	rep := &Table1Report{Config: cfg}
	for _, n := range cfg.Sizes {
		m := cfg.Density * n
		g := graph.RandomGnm(n, m, graph.Uniform(cfg.U), cfg.Seed+int64(n), true)

		dij := classic.Dijkstra(g, 0)
		var l int64
		var alpha int64 = 1
		for v, d := range dij.Dist {
			if d < graph.Inf {
				if d > l {
					l = d
				}
				if dij.Hops[v] < graph.Inf && dij.Hops[v] > alpha {
					alpha = dij.Hops[v]
				}
			}
		}
		bf := classic.BellmanFordKHop(g, 0, cfg.K, false)

		ssspN := mustSSSP(g, 0, -1)
		rep.SSSPStats = append(rep.SSSPStats, ssspN.Stats)
		ttl := core.KHopTTL(g, 0, -1, cfg.K)
		poly := core.KHopPoly(g, 0, cfg.K)
		polySSSP := core.SSSPPoly(g, 0)

		params := cost.Params{
			N: int64(n), M: int64(g.M()), K: int64(cfg.K), L: l,
			U: cfg.U, Alpha: alpha, C: int64(cfg.C),
		}
		pred := map[string]float64{}
		for _, r := range cost.Table1(params) {
			key := fmt.Sprintf("%s/%s/%v", r.Problem, r.Regime, r.WithMovement)
			pred[key] = r.Advantage
		}

		add := func(problem, regime string, move bool, conv, neuroCost float64) {
			rep.Rows = append(rep.Rows, Table1Row{
				Problem: problem, Regime: regime, WithMovement: move,
				N: n, M: g.M(), K: cfg.K, L: l,
				Conventional: conv, Neuromorphic: neuroCost,
				Advantage:          conv / neuroCost,
				PredictedAdvantage: pred[fmt.Sprintf("%s/%s/%v", problem, regime, move)],
			})
		}

		// --- ignoring data movement (E1-E4) ---
		add("SSSP", "pseudopolynomial", false,
			float64(dij.Ops), float64(ssspN.SpikeTime+ssspN.LoadTime))
		add("k-hop SSSP", "pseudopolynomial", false,
			float64(bf.Relaxations), float64(ttl.SpikeTime+ttl.LoadTime))
		add("k-hop SSSP", "polynomial", false,
			float64(bf.Relaxations), float64(poly.SpikeTime+poly.LoadTime))
		add("SSSP", "polynomial", false,
			float64(dij.Ops), float64(polySSSP.SpikeTime+polySSSP.LoadTime))

		if cfg.SkipMovement {
			continue
		}

		// --- with data movement (E5) ---
		var dprobes []distance.Probe
		if cfg.DistanceProbe != nil {
			dprobes = append(dprobes, cfg.DistanceProbe)
		}
		dijMove := distance.Dijkstra(g, 0, cfg.C, distance.Spread, dprobes...)
		bfMove := distance.BellmanFordKHop(g, 0, cfg.K, cfg.C, distance.Spread, dprobes...)

		cb := crossbar.New(n)
		if _, err := cb.Embed(g); err != nil {
			panic(fmt.Sprintf("harness: embed failed: %v", err))
		}
		cbRun := cb.SSSP(0)
		cb.Unembed()

		// Pseudo SSSP with movement: crossbar host time (scale·L) + load.
		add("SSSP", "pseudopolynomial", true,
			float64(dijMove.Movement), float64(cbRun.HostSpikeTime+ssspN.LoadTime))
		// Pseudo k-hop with movement: the crossbar scale multiplies the
		// TTL spiking time (Theorem 4.2's O(n)-factor embedding cost).
		add("k-hop SSSP", "pseudopolynomial", true,
			float64(bfMove.Movement), float64(cbRun.Scale*ttl.SpikeTime+ttl.LoadTime))
		// Poly rows with movement: same embedding factor on round time.
		add("k-hop SSSP", "polynomial", true,
			float64(bfMove.Movement), float64(cbRun.Scale*poly.SpikeTime+poly.LoadTime))
		add("SSSP", "polynomial", true,
			float64(dijMove.Movement), float64(cbRun.Scale*polySSSP.SpikeTime+polySSSP.LoadTime))
	}
	return rep
}

// Slope returns the measured growth exponent of quantity q (selected by
// sel) against m, across the sweep for the given experiment identity.
func (r *Table1Report) Slope(problem, regime string, move bool, sel func(Table1Row) float64) float64 {
	var xs, ys []float64
	for _, row := range r.Rows {
		if row.Problem == problem && row.Regime == regime && row.WithMovement == move {
			xs = append(xs, float64(row.M))
			ys = append(ys, sel(row))
		}
	}
	return LogLogSlope(xs, ys)
}

// Render formats the report as an aligned text table.
func (r *Table1Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 reproduction (density=%d, U=%d, k=%d, c=%d)\n",
		r.Config.Density, r.Config.U, r.Config.K, r.Config.C)
	fmt.Fprintf(&b, "%-12s %-18s %-8s %6s %8s %6s %14s %14s %10s %10s\n",
		"problem", "regime", "movement", "n", "m", "L",
		"conventional", "neuromorphic", "measured", "predicted")
	for _, row := range r.Rows {
		move := "ignored"
		if row.WithMovement {
			move = "charged"
		}
		fmt.Fprintf(&b, "%-12s %-18s %-8s %6d %8d %6d %14.4g %14.4g %9.3gx %9.3gx\n",
			row.Problem, row.Regime, move, row.N, row.M, row.L,
			row.Conventional, row.Neuromorphic, row.Advantage, row.PredictedAdvantage)
	}
	return b.String()
}
