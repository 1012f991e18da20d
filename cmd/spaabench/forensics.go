package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The provenance forensics subcommands: `why` records a spiking SSSP run
// with the causal flight recorder and walks the proof tree behind a
// spike, `replay` re-executes a recorded log and verifies it
// bit-identical, and `regress` diffs fresh runs against committed
// BENCH_*.json baselines.

// cmdWhy explains why a neuron fired: it runs the Section 3 SSSP
// construction with the flight recorder attached (or reads an existing
// provenance log with -in) and prints the causal proof tree of the
// queried spike — each level one synaptic delivery, bottoming out at the
// induced input. For SSSP relays the primary chain (first antecedent at
// each level, the FirstCause latch) is exactly the shortest path.
func cmdWhy(args []string) error {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	n := fs.Int("n", 64, "vertices")
	m := fs.Int("m", 256, "edges")
	u := fs.Int64("u", 8, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	src := fs.Int("src", 0, "source vertex")
	dst := fs.Int("dst", -1, "vertex to explain (also the default -neuron)")
	neuron := fs.Int("neuron", -1, "neuron to explain (defaults to -dst)")
	at := fs.Int64("t", -1, "explain the spike at exactly this time (-1: the neuron's first spike)")
	depth := fs.Int("depth", 0, "max causal depth in links (0: unlimited)")
	fan := fs.Int("fan", 0, "max antecedents expanded per spike (0: default 8)")
	save := fs.String("save", "", "write the recorded provenance log (JSONL) to this file")
	in := fs.String("in", "", "walk an existing provenance log instead of running ('-' = stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	opt := telemetry.WalkOptions{MaxDepth: *depth, MaxFan: *fan}

	if *in != "" {
		target := *neuron
		if target < 0 {
			target = *dst
		}
		if target < 0 {
			return fmt.Errorf("why -in needs -neuron (or -dst) to know which spike to explain")
		}
		log, err := readProvenanceArg(*in)
		if err != nil {
			return err
		}
		root, err := log.CausalTree(int32(target), *at, opt)
		if err != nil {
			return err
		}
		fmt.Print(telemetry.RenderCauseTree(root))
		fmt.Printf("causal depth: %d links\n", root.Depth())
		return nil
	}

	if err := checkVertices(*n, *src, *dst); err != nil {
		return err
	}
	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	rec, err := harness.RecordSSSP(g, *src, -1, "spaabench", "why")
	if err != nil {
		return err
	}
	target := *neuron
	if target < 0 {
		target = *dst
	}
	if target < 0 {
		return fmt.Errorf("why needs -neuron or -dst to know which spike to explain")
	}
	root, err := rec.Log.CausalTree(int32(target), *at, opt)
	if err != nil {
		return err
	}
	fmt.Printf("graph n=%d m=%d U=%d seed=%d src=%d\n", g.N(), g.M(), g.MaxLen(), *seed, *src)
	fmt.Print(telemetry.RenderCauseTree(root))

	if path := rec.Path(target); path != nil && *at < 0 {
		hops := len(path) - 1
		parts := make([]string, len(path))
		for i, v := range path {
			parts[i] = fmt.Sprintf("%d", v)
		}
		fmt.Printf("shortest path: %s (dist=%d, %d hops)\n", strings.Join(parts, " -> "), rec.Dist[target], hops)
		chain := len(root.PrimaryChain()) - 1
		verdict := "matches the hop count"
		if chain != hops {
			verdict = fmt.Sprintf("MISMATCH: path has %d hops", hops)
		}
		fmt.Printf("primary causal chain: %d links (%s)\n", chain, verdict)
	}
	if *save != "" {
		if err := rec.Log.WriteFile(*save); err != nil {
			return err
		}
		fmt.Printf("provenance log: %s (%d events)\n", *save, rec.Log.Header.Events)
	}
	return nil
}

// cmdReplay re-executes a recorded provenance log and verifies the fresh
// event stream is bit-identical to the recording; the first divergent
// event, if any, is reported and the exit status is nonzero.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spaabench replay <provenance.jsonl | ->")
	}
	log, err := readProvenanceArg(fs.Arg(0))
	if err != nil {
		return err
	}
	report, err := log.Replay()
	if err != nil {
		return err
	}
	if d := report.Divergence; d != nil {
		fmt.Printf("replayed %d events: DIVERGED\n", report.Events)
		return fmt.Errorf("%v", d)
	}
	fmt.Printf("replay ok: %d events bit-identical (spikes=%d deliveries=%d steps=%d)\n",
		report.Events, report.Stats.Spikes, report.Stats.Deliveries, report.Stats.Steps)
	return nil
}

func readProvenanceArg(name string) (*telemetry.ProvenanceLog, error) {
	if name == "-" {
		return telemetry.ReadProvenance(os.Stdin)
	}
	return telemetry.ReadProvenanceFile(name)
}

// cmdRegress is the manifest regression gate: for every committed
// BENCH_*.json baseline it re-runs the workload the manifest describes
// (same command, graph parameters, and seeds), rebuilds a fresh manifest
// through the same code path, and diffs every cost quantity. Any drift
// outside -tol fails the gate with a nonzero exit.
func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "accepted relative drift for cost quantities (0: exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: spaabench regress [-tol 0.02] <baseline.json ...>")
	}
	failed := 0
	for _, path := range fs.Args() {
		base, err := readManifestFile(path)
		if err != nil {
			return err
		}
		fresh, err := rerunBaseline(base)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		drifts := telemetry.DiffManifests(base, fresh, telemetry.Tolerance{Rel: *tol})
		if len(drifts) == 0 {
			fmt.Printf("ok   %s (%s)\n", path, base.Command)
			continue
		}
		failed++
		fmt.Printf("FAIL %s (%s): %d quantities drifted\n", path, base.Command, len(drifts))
		for _, d := range drifts {
			fmt.Printf("  %s\n", d)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d baselines drifted", failed, fs.NArg())
	}
	fmt.Printf("all %d baselines within tolerance\n", fs.NArg())
	return nil
}

func readManifestFile(path string) (*telemetry.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadManifest(f)
}

// rerunBaseline re-executes the workload a baseline manifest describes
// through the shared runner for its command and returns the fresh
// manifest. Registry baselines name their case in the command
// ("perf:<case>", "energy:<case>") and re-run through the harness
// registry; the rest re-run through the CLI's own runners.
func rerunBaseline(base *telemetry.Manifest) (*telemetry.Manifest, error) {
	switch kind, name, _ := strings.Cut(base.Command, ":"); kind {
	case "perf":
		c, ok := harness.PerfCaseByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown perf case %q", name)
		}
		return harness.RunPerfCase(c, harness.PerfOptions{Deterministic: true})
	case "energy":
		c, ok := harness.EnergyCaseByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown energy case %q", name)
		}
		return harness.RunEnergyCase(c, harness.EnergyOptions{Deterministic: true})
	}
	// deterministic: regress compares counters, not wall clocks; a
	// re-run manifest must be byte-stable modulo the measured series.
	o := &obs{force: true, deterministic: true}
	if err := o.begin(base.Command); err != nil {
		return nil, err
	}
	switch base.Command {
	case "sssp":
		if algo := cfgString(base, "algo", "spiking"); algo != "spiking" {
			return nil, fmt.Errorf("regress can re-run only -algo spiking baselines (got %q)", algo)
		}
		g, err := baselineGraph(base)
		if err != nil {
			return nil, err
		}
		runSSSPSpiking(o, g, base.Graph.Seed, cfgInt(base, "src", 0), cfgInt(base, "dst", -1))
	case "congest":
		g, err := baselineGraph(base)
		if err != nil {
			return nil, err
		}
		runCongest(o, g, base.Graph.Seed)
	case "table1":
		sizes := cfgInts(base, "sizes")
		if len(sizes) == 0 {
			return nil, fmt.Errorf("table1 baseline has no sizes in config")
		}
		runTable1(o, harness.Table1Config{
			Sizes:        sizes,
			Density:      cfgInt(base, "density", 4),
			U:            int64(cfgInt(base, "u", 8)),
			K:            cfgInt(base, "k", 8),
			C:            cfgInt(base, "c", 4),
			Seed:         int64(cfgInt(base, "seed", 1)),
			SkipMovement: cfgBool(base, "skip_movement"),
		})
	default:
		return nil, fmt.Errorf("regress cannot re-run command %q (supported: sssp, congest, table1, perf:<case>, energy:<case>)", base.Command)
	}
	return o.manifest(), nil
}

// baselineGraph regenerates the workload graph a manifest records. The
// maximum edge length passed to the generator comes from config "u" when
// present and falls back to the graph's recorded max_len (identical for
// every committed baseline: with hundreds of uniform draws the maximum
// is always attained).
func baselineGraph(base *telemetry.Manifest) (*graph.Graph, error) {
	gp := base.Graph
	if gp == nil {
		return nil, fmt.Errorf("baseline has no graph parameters to regenerate from")
	}
	if gp.Kind != "" && gp.Kind != "random" {
		return nil, fmt.Errorf("regress can regenerate only random graphs (got %q)", gp.Kind)
	}
	u := int64(cfgInt(base, "u", int(gp.MaxLen)))
	if u < 1 {
		return nil, fmt.Errorf("baseline graph has no usable max edge length")
	}
	return graph.RandomGnm(gp.N, gp.M, graph.Uniform(u), gp.Seed, true), nil
}

// Config values arrive from JSON as float64 (numbers), bool, string, or
// []any; these helpers decode with defaults.

func cfgInt(m *telemetry.Manifest, key string, def int) int {
	if v, ok := m.Config[key].(float64); ok {
		return int(v)
	}
	return def
}

func cfgBool(m *telemetry.Manifest, key string) bool {
	v, _ := m.Config[key].(bool)
	return v
}

func cfgString(m *telemetry.Manifest, key, def string) string {
	if v, ok := m.Config[key].(string); ok {
		return v
	}
	return def
}

func cfgInts(m *telemetry.Manifest, key string) []int {
	raw, ok := m.Config[key].([]any)
	if !ok {
		return nil
	}
	out := make([]int, 0, len(raw))
	for _, x := range raw {
		if v, ok := x.(float64); ok {
			out = append(out, int(v))
		}
	}
	return out
}
