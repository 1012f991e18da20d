package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// cmdEnergy runs the energy sweep — every registered case executes its
// workload, prices it from the run's snn.Stats, and prices a classic
// comparator on the same instance — and prints the advantage table.
// With -out it writes each case's manifest as BENCH_energy_<case>.json
// (the committed baselines, regenerated under -deterministic);
// `spaabench regress` re-runs and gates them.
func cmdEnergy(args []string) error {
	fs := flag.NewFlagSet("energy", flag.ExitOnError)
	caseList := fs.String("cases", "", "comma-separated case names (default: all registered cases)")
	out := fs.String("out", "", "write each manifest as BENCH_energy_<case>.json into this directory")
	deterministic := fs.Bool("deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cases []harness.EnergyCase
	if *caseList != "" {
		for _, name := range strings.Split(*caseList, ",") {
			c, ok := harness.EnergyCaseByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown energy case %q", name)
			}
			cases = append(cases, c)
		}
	} else {
		cases = harness.EnergyCases
	}

	var mans []*telemetry.Manifest
	for _, c := range cases {
		man, err := harness.RunEnergyCase(c, harness.EnergyOptions{Deterministic: *deterministic})
		if err != nil {
			return err
		}
		if err := writeBaseline(*out, man); err != nil {
			return err
		}
		mans = append(mans, man)
	}
	fmt.Print(harness.RenderEnergyTable(mans))
	return nil
}
