package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// cmdBench runs the named benchmark cases and prints the perf trend
// table, then the energy advantage table, over the same manifests. With
// -out it writes each case's manifest as BENCH_<case>.json — run with
// -deterministic, that is how the committed baselines are regenerated;
// `spaabench regress` re-runs and gates them.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	tier := fs.String("tier", "small", "benchmark tier: smoke|small|large|all")
	caseList := fs.String("cases", "", "comma-separated case names (overrides -tier)")
	out := fs.String("out", "", "write each manifest as BENCH_<case>.json into this directory")
	deterministic := fs.Bool("deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cases []harness.Case
	if *caseList != "" {
		for _, name := range strings.Split(*caseList, ",") {
			c, ok := harness.CaseByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown bench case %q", name)
			}
			cases = append(cases, c)
		}
	} else {
		cases = harness.CasesForTier(*tier)
	}
	if len(cases) == 0 {
		return fmt.Errorf("no bench cases in tier %q", *tier)
	}

	var mans []*telemetry.Manifest
	for _, c := range cases {
		man, err := harness.RunCase(c, *deterministic)
		if err != nil {
			return err
		}
		if err := writeBaseline(*out, c.Name, man); err != nil {
			return err
		}
		mans = append(mans, man)
	}
	fmt.Print(harness.RenderPerfTrend(mans))
	fmt.Println()
	fmt.Print(harness.RenderEnergyTable(mans))
	return nil
}

// writeBaseline writes man into dir (created with its parents if
// missing) under its committed baseline name BENCH_<name>.json. An
// empty dir writes nothing.
func writeBaseline(dir, name string, man *telemetry.Manifest) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return man.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"))
}
