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

// perfBaselineFile names the committed baseline manifest of a case.
func perfBaselineFile(name string) string {
	return "BENCH_perf_" + name + ".json"
}

// cmdPerf runs the named benchmark tier and compares each case against
// its committed BENCH_perf_<case>.json baseline: counter-derived
// quantities exactly (they are functions of the seed alone), total wall
// time within the -wall-tol band when both sides measured it. The trend
// table always prints; -gate turns any violation into a nonzero exit —
// the CI perf-smoke job runs `perf -tier small -gate` on every push and
// proves the gate trips with -slowdown-ms.
func cmdPerf(args []string) error {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	tier := fs.String("tier", "small", "benchmark tier: smoke|small|large|all")
	caseList := fs.String("cases", "", "comma-separated case names (overrides -tier)")
	baselineDir := fs.String("baseline-dir", ".", "directory holding BENCH_perf_<case>.json baselines")
	writeBaseline := fs.String("write-baseline", "", "write fresh manifests as baselines into this directory and exit")
	out := fs.String("out", "", "also write fresh manifests into this directory")
	gate := fs.Bool("gate", false, "exit nonzero when any case drifts from its baseline")
	tol := fs.Float64("tol", 0, "relative tolerance for counter-derived quantities (0 = exact)")
	wallTol := fs.Float64("wall-tol", 0.5, "accepted relative wall-time slowdown vs baseline")
	deterministic := fs.Bool("deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	slowdown := fs.Int("slowdown-ms", 0, "inject an artificial run-phase sleep (negative test for the wall gate)")
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

	if err := makeOutputDirs(*writeBaseline, *out); err != nil {
		return err
	}
	opts := harness.PerfOptions{Deterministic: *deterministic, SlowdownMS: *slowdown}
	var deltas []*harness.PerfDelta
	for _, c := range cases {
		man, err := harness.RunPerfCase(c, opts)
		if err != nil {
			return err
		}
		if *writeBaseline != "" {
			path := filepath.Join(*writeBaseline, perfBaselineFile(c.Name))
			if err := man.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		if *out != "" {
			if err := man.WriteFile(filepath.Join(*out, perfBaselineFile(c.Name))); err != nil {
				return err
			}
		}
		base, err := readPerfBaseline(filepath.Join(*baselineDir, perfBaselineFile(c.Name)))
		if err != nil {
			return err
		}
		deltas = append(deltas, harness.ComparePerf(c.Name, base, man,
			harness.PerfTolerance{Rel: *tol, Wall: *wallTol}))
	}
	if *writeBaseline != "" {
		return nil
	}

	fmt.Print(harness.RenderPerfTrend(deltas))
	var failed []string
	for _, d := range deltas {
		if !d.OK() {
			failed = append(failed, d.Name)
			for _, drift := range d.Drifts {
				fmt.Printf("  %s: %s\n", d.Name, drift)
			}
			if d.WallViolation {
				fmt.Printf("  %s: wall %.1fms exceeds baseline %.1fms by more than %.0f%%\n",
					d.Name, d.Fresh.Perf.WallMS, d.Base.Perf.WallMS, *wallTol*100)
			}
		}
	}
	if *gate && len(failed) > 0 {
		return fmt.Errorf("perf gate failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// makeOutputDirs creates the -write-baseline and -out directories (and
// their parents) up front, so a fresh path works without a manual mkdir.
func makeOutputDirs(dirs ...string) error {
	for _, d := range dirs {
		if d == "" {
			continue
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// readPerfBaseline loads a baseline manifest; a missing file returns
// nil (reported as MissingBaseline by ComparePerf, fatal only under
// -gate).
func readPerfBaseline(path string) (*telemetry.Manifest, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadManifest(f)
}
