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

// cmdPerf runs the named benchmark tier and prints the trend table. With
// -out it writes each case's manifest as BENCH_perf_<case>.json — run
// with -deterministic, that is how the committed baselines are
// regenerated; `spaabench regress` re-runs and gates them.
func cmdPerf(args []string) error {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	tier := fs.String("tier", "small", "benchmark tier: smoke|small|large|all")
	caseList := fs.String("cases", "", "comma-separated case names (overrides -tier)")
	out := fs.String("out", "", "write each manifest as BENCH_perf_<case>.json into this directory")
	deterministic := fs.Bool("deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cases []harness.PerfCase
	if *caseList != "" {
		for _, name := range strings.Split(*caseList, ",") {
			c, ok := harness.PerfCaseByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown perf case %q", name)
			}
			cases = append(cases, c)
		}
	} else {
		cases = harness.PerfCasesForTier(*tier)
	}
	if len(cases) == 0 {
		return fmt.Errorf("no perf cases in tier %q", *tier)
	}

	var mans []*telemetry.Manifest
	for _, c := range cases {
		man, err := harness.RunPerfCase(c, harness.PerfOptions{Deterministic: *deterministic})
		if err != nil {
			return err
		}
		if err := writeBaseline(*out, man); err != nil {
			return err
		}
		mans = append(mans, man)
	}
	fmt.Print(harness.RenderPerfTrend(mans))
	return nil
}

// writeBaseline writes man into dir (created with its parents if
// missing) under its committed baseline name: command
// "perf:sssp_random_2k" is BENCH_perf_sssp_random_2k.json. An empty dir
// writes nothing.
func writeBaseline(dir string, man *telemetry.Manifest) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "BENCH_" + strings.Replace(man.Command, ":", "_", 1) + ".json"
	return man.WriteFile(filepath.Join(dir, name))
}
