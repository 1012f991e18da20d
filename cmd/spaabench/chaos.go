package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/trace"
)

// cmdChaos runs a chaos-soak campaign against an in-process resilience
// layer: a seeded overload of mixed sssp/khop queries under a fault
// model, with service-level assertions checked afterwards — zero silent
// wrong answers, shed-rather-than-crash, bounded shed/degrade fractions.
//
// -deterministic runs the virtual-time driver (sequential execution on a
// simulated timeline): the rendered report is byte-identical across
// reruns, which CI exploits with a cmp of two runs. Without it the
// campaign hammers the service from real goroutines (the race-detector
// target). -strict turns assertion failures into a non-zero exit.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	queries := fs.Int("queries", 160, "campaign length")
	seed := fs.Int64("seed", 1, "campaign seed (arrivals, graphs, sources, faults)")
	tenants := fs.Int("tenants", 4, "tenants sharing the service (round-robin)")
	meanGap := fs.Int64("mean-gap", 10, "mean inter-arrival gap in clock units (small = overload)")
	n := fs.Int("n", 48, "vertices per query graph")
	m := fs.Int("m", 192, "edges per query graph")
	k := fs.Int("k", 4, "hop bound (khop queries and the approx rung)")
	budget := fs.Int64("budget", 0, "per-query deadline in simulated steps (0 = unlimited)")
	drop := fs.Float64("drop", 0.02, "fault-model delivery drop probability")
	workers := fs.Int("workers", 2, "service worker slots")
	queueCap := fs.Int("queue", 4, "service queue depth")
	quotaTokens := fs.Int64("quota-tokens", 16, "per-tenant token-bucket capacity (0 disables)")
	quotaRefill := fs.Int64("quota-refill-milli", 100, "quota refill in milli-tokens per clock unit")
	retries := fs.Int("retries", 1, "per-query engine retry budget")
	brThreshold := fs.Int("breaker-threshold", 4, "consecutive engine failures that open the breaker")
	brCooldown := fs.Int64("breaker-cooldown", 64, "breaker cooldown in clock units")
	deterministic := fs.Bool("deterministic", false, "virtual-time driver: byte-reproducible campaign")
	strict := fs.Bool("strict", false, "non-zero exit when the chaos gate trips")
	minShed := fs.Int("min-shed", 1, "strict: require at least this many sheds (overload proof)")
	maxShedFrac := fs.Float64("max-shed-frac", 0.9, "strict: maximum shed fraction of the campaign")
	maxDegradedFrac := fs.Float64("max-degraded-frac", 1.0, "strict: maximum degraded fraction of admitted queries")
	p99Budget := fs.Int64("p99-budget", 0, "strict: p99 latency bound in clock units (0 = unchecked)")
	out := fs.String("out", "", "write the report as JSON to this file")
	traceOut := fs.String("trace-out", "", "trace every query and write the spaa-trace/v1 report as JSON to this file")
	scrape := fs.Bool("scrape", false, "print the campaign's spaa_service_* scrape after the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkCounts("chaos", countFlag{"queries", int64(*queries)}, countFlag{"tenants", int64(*tenants)},
		countFlag{"workers", int64(*workers)}, countFlag{"queue", int64(*queueCap)}); err != nil {
		return err
	}

	cfg := service.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxRetries:       *retries,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		QuotaTokens:      *quotaTokens,
		QuotaRefillMilli: *quotaRefill,
		Budget:           *budget,
		Model:            faults.Model{DropProb: *drop, Seed: *seed},
		Seed:             *seed,
	}
	if err := cfg.Model.Check(); err != nil {
		return flagError(err, map[string]string{"DropProb": "drop"})
	}
	if *deterministic {
		cfg.Clock = &service.LogicalClock{}
	}
	var col *trace.Collector
	if *traceOut != "" {
		// Logical units under -deterministic (byte-reproducible output),
		// wall refinements otherwise.
		col = trace.NewCollector(trace.Config{Seed: *seed, Wall: !*deterministic})
		cfg.Trace = col
	}
	svc := service.New(metrics.NewRegistry(), cfg)

	ccfg := service.ChaosConfig{
		Queries:         *queries,
		Seed:            *seed,
		Tenants:         *tenants,
		MeanGap:         *meanGap,
		N:               *n,
		M:               *m,
		K:               *k,
		Budget:          *budget,
		Deterministic:   *deterministic,
		MinShed:         *minShed,
		MaxShedFrac:     *maxShedFrac,
		MaxDegradedFrac: *maxDegradedFrac,
		P99Budget:       *p99Budget,
	}
	rep := service.RunChaos(svc, ccfg)
	fmt.Print(rep.Render())
	if !*deterministic {
		fmt.Printf("  wall %v\n", rep.Wall)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		data, err := json.MarshalIndent(col.Report(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *scrape {
		if err := svc.Registry().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if err := rep.Check(ccfg); err != nil {
		if *strict {
			return err
		}
		fmt.Printf("  (advisory) %v\n", err)
	}
	return nil
}
