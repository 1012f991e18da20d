// Command spaabench regenerates the tables and figures of "Provable
// Advantages for Graph Algorithms in Spiking Neural Networks" (SPAA 2021)
// from the reproduction library.
//
// Usage:
//
//	spaabench table1 [-sizes 64,128,256,512] [-density 4] [-u 8] [-k 8] [-c 4] [-skip-movement]
//	spaabench table2 [-d 2,4,8,16,32] [-lambda 4,8,16]
//	spaabench table3
//	spaabench figures
//	spaabench experiments            # full EXPERIMENTS.md markdown to stdout
//	spaabench sssp -n 256 -m 1024 [-u 8] [-seed 1] [-src 0] [-dst -1] [-algo spiking|dijkstra|poly|crossbar|khop] [-k 8]
//	spaabench gen -n 64 -m 256 [-u 8] [-seed 1]   # edge list to stdout
//	spaabench raster -n 16 -m 48                  # ASCII spike raster of the SSSP wavefront
//	spaabench flow -layers 4 -width 6             # tidal max flow with sweep accounting
//	spaabench congest -n 64 -m 256                # distributed BFS/SSSP with bit accounting
//	spaabench dot -n 12 -m 30 -dst 5              # Graphviz DOT with highlighted shortest path
//	spaabench timeline -n 16 -m 48                # raster plus per-step telemetry sparklines
//	spaabench validate <netlist>                  # static Definition 1-2 checks ("-" = stdin)
//	spaabench faults [-rates 0,0.01] [-trials 20] [-k 3]  # fault-injection sweep + degradation curve
//	spaabench why -n 64 -m 256 -dst 5 [-save log.jsonl]   # causal proof tree behind a spike
//	spaabench replay <log.jsonl>                  # re-execute a provenance log, verify bit-identical
//	spaabench regress [-tol 0.02] BENCH_*.json    # diff fresh runs against committed baselines
//	spaabench serve [-addr 127.0.0.1:9090]        # live metrics daemon: /metrics, dashboard, SSE
//	spaabench soak [-workers 8] [-iters 16] [-addr URL]  # concurrent load driver
//	spaabench perf [-tier small] [-gate]          # benchmark tier vs BENCH_perf_*.json baselines
//	spaabench energy [-gate]                      # energy sweep vs BENCH_energy_*.json baselines
//	spaabench trace [-gate]                       # traced chaos replay: ASCII waterfalls + determinism/coverage gate
//
// The sssp, table1, flow, congest, fleet, and timeline subcommands also
// accept observability flags: -metrics out.json writes a JSON run
// manifest (the BENCH_*.json format; add -deterministic for
// byte-reproducible output), -trace out.json writes Chrome trace_event
// JSON viewable in Perfetto, and -cpuprofile / -memprofile write pprof
// profiles. `why -save` writes a spaa-provenance/v1 causal spike log
// that `replay` re-executes; `regress` is the CI gate over the
// committed BENCH_*.json manifests. `serve` exposes a Prometheus-style
// /metrics endpoint plus a live dashboard; `soak` drives seeded
// concurrent load through the instrumented stack and can stream its run
// manifests to a serve daemon; `perf` runs the named benchmark tier and
// gates counter-derived throughput metrics (exactly) and wall time
// (within a band) against the committed BENCH_perf_*.json baselines;
// `energy` prices per-spike/per-delivery/per-idle-step energy across
// every Table 3 platform from the run's snn.Stats, alongside a classic
// comparator on the same run, gated against the committed
// BENCH_energy_*.json baselines.
// See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/crossbar"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain is the single exit path: every subcommand returns here, and
// profiling outputs are flushed before the process status is decided —
// a failing run (nonzero exit) still emits its -cpuprofile/-memprofile
// files, where a bare os.Exit inside the dispatch would have dropped
// them.
func realMain(argv []string) int {
	if len(argv) < 1 {
		usage()
		return 2
	}
	cmd, args := argv[0], argv[1:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "table3":
		fmt.Print(platform.Render())
	case "figures":
		fmt.Print(harness.RunFigures())
	case "experiments":
		err = cmdExperiments(args)
	case "sssp":
		err = cmdSSSP(args)
	case "gen":
		err = cmdGen(args)
	case "raster":
		err = cmdRaster(args)
	case "timeline":
		err = cmdTimeline(args)
	case "flow":
		err = cmdFlow(args)
	case "congest":
		err = cmdCongest(args)
	case "dot":
		err = cmdDOT(args)
	case "crossover":
		err = cmdCrossover(args)
	case "fleet":
		err = cmdFleet(args)
	case "faults":
		err = cmdFaults(args)
	case "why":
		err = cmdWhy(args)
	case "replay":
		err = cmdReplay(args)
	case "regress":
		err = cmdRegress(args)
	case "verify":
		err = cmdVerify(args)
	case "validate":
		err = cmdValidate(args)
	case "serve":
		err = cmdServe(args)
	case "soak":
		err = cmdSoak(args)
	case "perf":
		err = cmdPerf(args)
	case "energy":
		err = cmdEnergy(args)
	case "chaos":
		err = cmdChaos(args)
	case "trace":
		err = cmdTrace(args)
	default:
		usage()
		return 2
	}
	flushProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaabench:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spaabench {table1|table2|table3|figures|experiments|sssp|gen|raster|timeline|flow|congest|dot|crossover|fleet|faults|why|replay|regress|verify|validate|serve|soak|perf|energy|chaos|trace} [flags]")
	fmt.Fprintln(os.Stderr, "robustness: faults [-rates 0,0.01,...] [-trials 20] [-k 3] [-retries 3] [-strict] [-metrics out.json]")
	fmt.Fprintln(os.Stderr, "chaos: chaos [-queries 160] [-seed 1] [-deterministic] [-strict] [-drop 0.02] [-budget 0] [-workers 2] [-queue 4] [-quota-tokens 16] [-out report.json] [-trace-out trace.json]")
	fmt.Fprintln(os.Stderr, "tracing: trace [-queries 160] [-seed 1] [-budget 256] [-gate] [-max-traces 4] [-out manifest.json] [-chrome trace.json] [-drop-degraded]")
	fmt.Fprintln(os.Stderr, "observability (sssp, table1, flow, congest, fleet, timeline): -metrics out.json [-deterministic] -trace out.json -cpuprofile out.pprof -memprofile out.pprof")
	fmt.Fprintln(os.Stderr, "forensics: why -dst N [-save log.jsonl] | replay log.jsonl | regress [-tol 0.02] BENCH_*.json")
	fmt.Fprintln(os.Stderr, "live: serve [-addr 127.0.0.1:9090] [-preload 'BENCH_*.json'] | soak [-workers 8] [-iters 16] [-mix sssp,congest,fleet,table1] [-addr http://127.0.0.1:9090]")
	fmt.Fprintln(os.Stderr, "perf: perf [-tier smoke|small|large|all] [-cases a,b] [-deterministic] [-out DIR]")
	fmt.Fprintln(os.Stderr, "energy: energy [-cases a,b] [-deterministic] [-out DIR]")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkGnm validates the -n/-m/-u flags of the subcommands that
// generate a graph.RandomGnm instance, so a bad size exits with an error
// instead of a generator panic.
func checkGnm(n, m int, u int64) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n must be >= 1, got %d", n)
	case m < 0:
		return fmt.Errorf("-m must be >= 0, got %d", m)
	case n > graph.MaxEdges || m > graph.MaxEdges:
		return fmt.Errorf("-n and -m must be <= %d, got %d and %d", graph.MaxEdges, n, m)
	case n == 1 && m > 0:
		return fmt.Errorf("-m must be 0 when -n is 1 (no self-loops), got %d", m)
	case u < 1:
		return fmt.Errorf("-u must be >= 1, got %d", u)
	}
	return nil
}

// checkVertices rejects a source outside [0,n) and a destination outside
// [-1,n) (-1 = every vertex) before they reach a solver that would panic.
func checkVertices(n, src, dst int) error {
	switch {
	case src < 0 || src >= n:
		return fmt.Errorf("-src must be in [0,%d), got %d", n, src)
	case dst < -1 || dst >= n:
		return fmt.Errorf("-dst must be in [-1,%d), got %d", n, dst)
	}
	return nil
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	sizes := fs.String("sizes", "64,128,256,512", "comma-separated vertex counts")
	density := fs.Int("density", 4, "edges per vertex")
	u := fs.Int64("u", 8, "maximum edge length U")
	k := fs.Int("k", 8, "hop bound")
	c := fs.Int("c", 4, "DISTANCE-model registers")
	seed := fs.Int64("seed", 1, "workload seed")
	skip := fs.Bool("skip-movement", false, "skip the DISTANCE/crossbar half")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns, err := parseInts(*sizes)
	if err != nil {
		return err
	}
	if err := o.begin("table1"); err != nil {
		return err
	}
	rep := runTable1(o, harness.Table1Config{
		Sizes: ns, Density: *density, U: *u, K: *k, C: *c, Seed: *seed,
		SkipMovement: *skip,
	})
	fmt.Print(rep.Render())
	return o.finish()
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	ds := fs.String("d", "2,4,8,16,32", "input counts")
	ls := fs.String("lambda", "4,8,16", "bit widths")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dd, err := parseInts(*ds)
	if err != nil {
		return err
	}
	ll, err := parseInts(*ls)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderTable2(harness.RunTable2(dd, ll)))
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	quick := fs.Bool("quick", false, "smaller sweep (faster)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := harness.DefaultTable1Config()
	if *quick {
		cfg.Sizes = []int{32, 64, 128}
	}
	fmt.Print(harness.ExperimentsMarkdown(cfg, faults.ExperimentsSection()))
	return nil
}

func cmdSSSP(args []string) error {
	fs := flag.NewFlagSet("sssp", flag.ExitOnError)
	n := fs.Int("n", 256, "vertices")
	m := fs.Int("m", 1024, "edges")
	u := fs.Int64("u", 8, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	src := fs.Int("src", 0, "source vertex")
	dst := fs.Int("dst", -1, "destination (-1 = all)")
	k := fs.Int("k", 8, "hop bound (khop algo)")
	algo := fs.String("algo", "spiking", "spiking|dijkstra|poly|crossbar|khop")
	in := fs.String("in", "", "read graph from edge-list file instead of generating")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := o.begin("sssp"); err != nil {
		return err
	}
	var g *graph.Graph
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f)
		if err != nil {
			return err
		}
	} else {
		g = graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	}
	if err := checkVertices(g.N(), *src, *dst); err != nil {
		return err
	}
	o.setGraph(g, *seed, "random")
	o.Man.SetConfig("algo", *algo).SetConfig("src", *src).SetConfig("dst", *dst)

	report := func(dist []int64, extra string) {
		reached := 0
		var maxD int64
		for _, d := range dist {
			if d < graph.Inf {
				reached++
				if d > maxD {
					maxD = d
				}
			}
		}
		fmt.Printf("graph n=%d m=%d U=%d  reached=%d  L=%d  %s\n",
			g.N(), g.M(), g.MaxLen(), reached, maxD, extra)
		if *dst >= 0 {
			d := "inf"
			if dist[*dst] < graph.Inf {
				d = fmt.Sprintf("%d", dist[*dst])
			}
			fmt.Printf("dist(%d -> %d) = %s\n", *src, *dst, d)
		}
	}

	switch *algo {
	case "spiking":
		r := runSSSPSpiking(o, g, *seed, *src, *dst)
		report(r.Dist, fmt.Sprintf("spike-time=%d neurons=%d spikes=%d deliveries=%d",
			r.SpikeTime, r.Neurons, r.Stats.Spikes, r.Stats.Deliveries))
	case "dijkstra":
		r := classic.Dijkstra(g, *src)
		report(r.Dist, fmt.Sprintf("heap-ops=%d", r.Ops))
		o.Rec.Add("heap_ops", r.Ops)
	case "poly":
		r := core.SSSPPoly(g, *src)
		report(r.Dist, fmt.Sprintf("rounds=%d spike-time=%d neurons=%d",
			r.Rounds, r.SpikeTime, r.NeuronCount))
		o.Rec.Add("rounds", int64(r.Rounds))
		o.Rec.Add("neurons", int64(r.NeuronCount))
		o.Tr.Span("phase", "poly-rounds", 0, r.SpikeTime)
	case "khop":
		r := core.KHopTTL(g, *src, *dst, *k)
		report(r.Dist, fmt.Sprintf("k=%d lambda=%d broadcasts=%d neurons=%d",
			*k, r.Lambda, r.Broadcasts, r.NeuronCount))
		o.Rec.Add("broadcasts", int64(r.Broadcasts))
		o.Rec.Add("neurons", int64(r.NeuronCount))
	case "crossbar":
		cb := crossbar.New(g.N())
		if _, err := cb.Embed(g); err != nil {
			return err
		}
		r := cb.SSSP(*src)
		report(r.Dist, fmt.Sprintf("scale=%d host-neurons=%d host-time=%d",
			r.Scale, r.HostNeurons, r.HostSpikeTime))
		o.Rec.Add("crossbar_scale", r.Scale)
		o.Rec.Add("host_neurons", int64(r.HostNeurons))
		o.Tr.Span("phase", "crossbar-host", 0, r.HostSpikeTime)
	default:
		return fmt.Errorf("unknown algo %q", *algo)
	}
	return o.finish()
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 64, "vertices")
	m := fs.Int("m", 256, "edges")
	u := fs.Int64("u", 8, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	kind := fs.String("kind", "random", "random|grid|ring|layered|complete|scalefree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	edges := *m // only the random kind reads -m
	if *kind != "random" {
		edges = 0
	}
	if err := checkGnm(*n, edges, *u); err != nil {
		return err
	}
	var g *graph.Graph
	dist := graph.Uniform(*u)
	switch *kind {
	case "random":
		g = graph.RandomGnm(*n, *m, dist, *seed, true)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		g = graph.Grid(side, side, dist, *seed)
	case "ring":
		g = graph.Ring(*n, dist, *seed)
	case "layered":
		g = graph.Layered(*n/8+1, 8, dist, *seed)
	case "complete":
		g = graph.Complete(*n, dist, *seed)
	case "scalefree":
		g = graph.PreferentialAttachment(*n, 2, dist, *seed)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	return graph.WriteEdgeList(os.Stdout, g)
}

func cmdRaster(args []string) error {
	fs := flag.NewFlagSet("raster", flag.ExitOnError)
	n := fs.Int("n", 16, "vertices")
	m := fs.Int("m", 48, "edges")
	u := fs.Int64("u", 6, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	src := fs.Int("src", 0, "source vertex")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := checkVertices(*n, *src, -1); err != nil {
		return err
	}
	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	fmt.Print(harness.SSSPRaster(g, *src))
	return nil
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	n := fs.Int("n", 16, "vertices")
	m := fs.Int("m", 48, "edges")
	u := fs.Int64("u", 6, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	src := fs.Int("src", 0, "source vertex")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := checkVertices(*n, *src, -1); err != nil {
		return err
	}
	if err := o.begin("timeline"); err != nil {
		return err
	}
	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	o.setGraph(g, *seed, "random")
	o.Man.SetConfig("src", *src)
	out, rec := harness.SSSPTimeline(g, *src)
	fmt.Print(out)
	// SSSPTimeline owns the probe for its run; adopt its recorder so
	// -metrics / -trace export the same series the sparklines show.
	o.Rec = rec
	return o.finish()
}

func cmdFlow(args []string) error {
	fs := flag.NewFlagSet("flow", flag.ExitOnError)
	layers := fs.Int("layers", 4, "layer count")
	width := fs.Int("width", 6, "layer width")
	u := fs.Int64("u", 20, "max capacity")
	seed := fs.Int64("seed", 1, "seed")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.begin("flow"); err != nil {
		return err
	}
	g := graph.Layered(*layers, *width, graph.Uniform(*u), *seed)
	s, t := 0, g.N()-1
	r := flow.Tidal(g, s, t)
	d := flow.Dinic(g, s, t)
	fmt.Printf("layered network n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("tidal max flow  %d (dinic: %d)\n", r.Value, d)
	fmt.Printf("phases=%d cycles=%d sweep-rounds=%d sweep-messages=%d fallbacks=%d\n",
		r.Phases, r.Cycles, r.SweepRounds, r.SweepMessages, r.FallbackAugments)
	o.setGraph(g, *seed, "layered")
	o.Man.SetConfig("layers", *layers).SetConfig("width", *width)
	o.Rec.Add("flow_value", r.Value)
	o.Rec.Add("flow_phases", int64(r.Phases))
	o.Rec.Add("flow_cycles", int64(r.Cycles))
	o.Rec.Add("flow_sweep_rounds", int64(r.SweepRounds))
	o.Rec.Add("flow_sweep_messages", int64(r.SweepMessages))
	o.Rec.Add("flow_fallback_augments", int64(r.FallbackAugments))
	return o.finish()
}

func cmdCongest(args []string) error {
	fs := flag.NewFlagSet("congest", flag.ExitOnError)
	n := fs.Int("n", 64, "vertices")
	m := fs.Int("m", 256, "edges")
	u := fs.Int64("u", 8, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := o.begin("congest"); err != nil {
		return err
	}
	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	r := runCongest(o, g, *seed)
	fmt.Printf("graph n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("BFS:  rounds=%d messages=%d max-bits=%d\n", r.BFSRounds, r.BFSMessages, r.BFSMaxBits)
	fmt.Printf("SSSP: rounds=%d messages=%d max-bits=%d total-bits=%d matches-dijkstra=%v\n",
		r.SSSPRounds, r.SSSPMessages, r.SSSPMaxBits, r.SSSPTotalBits, r.MatchesDijkstra)
	return o.finish()
}

func cmdDOT(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	n := fs.Int("n", 12, "vertices")
	m := fs.Int("m", 30, "edges")
	u := fs.Int64("u", 9, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	dst := fs.Int("dst", -1, "highlight shortest path to this vertex")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := checkVertices(*n, 0, *dst); err != nil {
		return err
	}
	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	var highlight []int
	if *dst >= 0 {
		r, err := core.SSSP(g, 0, -1)
		if err != nil {
			return err
		}
		highlight = r.Path(*dst)
	}
	return graph.WriteDOT(os.Stdout, g, "spaa", highlight)
}

func cmdCrossover(args []string) error {
	fs := flag.NewFlagSet("crossover", flag.ExitOnError)
	n := fs.Int64("n", 256, "vertices")
	m := fs.Int64("m", 1024, "edges")
	u := fs.Int64("u", 8, "max edge length")
	c := fs.Int64("c", 1, "registers")
	l := fs.Int64("l", 16, "path length L")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := cost.Params{N: *n, M: *m, K: 1, L: *l, U: *u, Alpha: 4, C: *c}
	fmt.Printf("advantage windows at n=%d m=%d U=%d c=%d L=%d (cost-model units):\n", *n, *m, *u, *c, *l)
	if k := cost.CrossoverK(p, 1<<30); k > 0 {
		fmt.Printf("  k-hop (no movement): spiking wins for k >= %d (log2(nU) = %.1f)\n",
			k, logf(float64(*n**u)))
	} else {
		fmt.Println("  k-hop (no movement): no crossover in range")
	}
	if lmax := cost.CrossoverL(p, 1<<40); lmax > 0 {
		fmt.Printf("  pseudopolynomial SSSP (no movement): spiking wins for L <= %d\n", lmax)
	} else {
		fmt.Println("  pseudopolynomial SSSP (no movement): window closed (m too large)")
	}
	if mm := cost.CrossoverMovementM(p, 10, 1<<40); mm > 0 {
		fmt.Printf("  movement regime: 10x advantage from m >= %d\n", mm)
	}
	return nil
}

func logf(x float64) float64 {
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l
}

func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	rows := fs.Int("rows", 12, "grid rows")
	cols := fs.Int("cols", 12, "grid cols")
	capacity := fs.Int("capacity", 24, "neurons per chip")
	o := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.begin("fleet"); err != nil {
		return err
	}
	g := graph.Grid(*rows, *cols, graph.Unit, 1)
	o.setGraph(g, 1, "grid")
	o.Man.SetConfig("rows", *rows).SetConfig("cols", *cols).SetConfig("capacity", *capacity)
	r, err := core.SSSP(g, 0, -1, o.snnProbes()...)
	if err != nil {
		return err
	}
	dist := r.Dist
	bfs := fleet.PartitionBFS(g, *capacity)
	rr := fleet.PartitionRoundRobin(g, *capacity)
	// Only the BFS placement feeds the per-chip probe series; the
	// round-robin contrast run is summarized in counters below.
	tb := fleet.AnalyzeSSSP(g, bfs, dist, o.fleetProbes()...)
	tr := fleet.AnalyzeSSSP(g, rr, dist)
	loihiPJ := 23.6
	fmt.Printf("grid %dx%d on chips of %d neurons (%d chips)\n", *rows, *cols, *capacity, bfs.Chips)
	fmt.Printf("  BFS placement:         cut=%4d  intra=%5d inter=%4d  energy=%.3g J (board penalty 100x)\n",
		tb.CutEdges, tb.IntraChip, tb.InterChip, tb.EnergyJoules(loihiPJ, 100))
	fmt.Printf("  round-robin placement: cut=%4d  intra=%5d inter=%4d  energy=%.3g J\n",
		tr.CutEdges, tr.IntraChip, tr.InterChip, tr.EnergyJoules(loihiPJ, 100))
	o.Man.Stats = telemetry.StatsFrom(r.Stats)
	o.Rec.Add("chips", int64(bfs.Chips))
	o.Rec.Add("bfs_cut_edges", int64(tb.CutEdges))
	o.Rec.Add("roundrobin_cut_edges", int64(tr.CutEdges))
	o.Rec.Add("roundrobin_inter_chip", tr.InterChip)
	return o.finish()
}

// cmdValidate statically verifies a netlist file against the paper's
// Definition 1-2 invariants without simulating it (the compile-time
// counterpart is `go run ./cmd/spaavet ./...`). Exit is nonzero when any
// error-level violation is present; warnings are reported but tolerated
// unless -strict is set.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat warnings as failures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spaabench validate [-strict] <netlist-file | ->")
	}
	in := os.Stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	info, violations, err := snn.LintNetlist(in)
	if err != nil {
		return err
	}
	fmt.Printf("netlist: %d neurons, %d synapses, %d induced spikes, %d terminals (rule=%s record=%v)\n",
		info.Neurons, info.Synapses, info.Induced, info.Terminals, info.Rule, info.Record)
	errors, warnings := 0, 0
	for _, v := range violations {
		fmt.Println(" ", v)
		if v.Severity == snn.SevError {
			errors++
		} else {
			warnings++
		}
	}
	if errors > 0 || (*strict && warnings > 0) {
		return fmt.Errorf("%d error(s), %d warning(s)", errors, warnings)
	}
	if warnings > 0 {
		fmt.Printf("ok with %d warning(s)\n", warnings)
	} else {
		fmt.Println("ok: all Definition 1-2 invariants hold")
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out, failed := harness.RenderChecks(harness.Verify(*seed))
	fmt.Print(out)
	if failed {
		return fmt.Errorf("verification failed")
	}
	fmt.Println("all headline claims verified")
	return nil
}
