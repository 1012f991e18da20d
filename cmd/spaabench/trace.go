package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// cmdTrace replays a deterministic chaos campaign with per-query tracing
// enabled and renders the tail-sampled traces as ASCII waterfalls: one
// causal timeline per kept query, HTTP-style admission through ladder
// rungs down to engine step totals. Because the campaign runs on the
// virtual clock and the collector on logical units, the spaa-trace/v1
// output is byte-identical across reruns — -gate enforces exactly that
// (double run + cmp), plus the tail-coverage contract: every degraded or
// timed-out query must be present as a sampled trace whose spans cover
// admission → rung → engine run. -drop-degraded deliberately
// misconfigures the sampler so CI can prove the gate trips.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	queries := fs.Int("queries", 160, "campaign length")
	seed := fs.Int64("seed", 1, "campaign seed (arrivals, graphs, sources, faults, trace IDs)")
	tenants := fs.Int("tenants", 4, "tenants sharing the service (round-robin)")
	meanGap := fs.Int64("mean-gap", 10, "mean inter-arrival gap in clock units (small = overload)")
	n := fs.Int("n", 48, "vertices per query graph")
	m := fs.Int("m", 192, "edges per query graph")
	k := fs.Int("k", 4, "hop bound (khop queries and the approx rung)")
	budget := fs.Int64("budget", 256, "per-query deadline in simulated steps (0 = unlimited)")
	drop := fs.Float64("drop", 0.02, "fault-model delivery drop probability")
	workers := fs.Int("workers", 2, "service worker slots")
	queueCap := fs.Int("queue", 4, "service queue depth")
	quotaTokens := fs.Int64("quota-tokens", 16, "per-tenant token-bucket capacity (0 disables)")
	quotaRefill := fs.Int64("quota-refill-milli", 100, "quota refill in milli-tokens per clock unit")
	retries := fs.Int("retries", 1, "per-query engine retry budget")
	capacity := fs.Int("capacity", 512, "sampled-trace ring capacity")
	keepEvery := fs.Int64("keep-every", 8, "keep 1 in N healthy traces (hash-sampled)")
	dropDegraded := fs.Bool("drop-degraded", false, "misconfigure the tail sampler to ignore degraded/timed-out flags (negative-test knob; trips -gate)")
	maxTraces := fs.Int("max-traces", 4, "waterfalls to render (0 = all sampled)")
	gate := fs.Bool("gate", false, "re-run the campaign, require byte-identical trace output and full tail coverage")
	out := fs.String("out", "", "write a spaa-run-manifest/v1 document carrying the trace section to this file")
	chrome := fs.String("chrome", "", "write the sampled traces as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkCounts("trace", countFlag{"queries", int64(*queries)}, countFlag{"tenants", int64(*tenants)},
		countFlag{"workers", int64(*workers)}, countFlag{"queue", int64(*queueCap)}); err != nil {
		return err
	}

	run := func() (*service.ChaosReport, *trace.Report) {
		col := trace.NewCollector(trace.Config{
			Seed:         *seed,
			Capacity:     *capacity,
			KeepEvery:    *keepEvery,
			DropDegraded: *dropDegraded,
		})
		svc := service.New(metrics.NewRegistry(), service.Config{
			Workers:          *workers,
			QueueCap:         *queueCap,
			MaxRetries:       *retries,
			QuotaTokens:      *quotaTokens,
			QuotaRefillMilli: *quotaRefill,
			Budget:           *budget,
			Model:            faults.Model{DropProb: *drop, Seed: *seed},
			Seed:             *seed,
			Clock:            &service.LogicalClock{},
			Trace:            col,
		})
		rep := service.RunChaos(svc, service.ChaosConfig{
			Queries:       *queries,
			Seed:          *seed,
			Tenants:       *tenants,
			MeanGap:       *meanGap,
			N:             *n,
			M:             *m,
			K:             *k,
			Budget:        *budget,
			Deterministic: true,
		})
		return rep, col.Report()
	}

	rep, tr := run()
	fmt.Print(tr.Render(*maxTraces))
	fmt.Printf("campaign: %d queries, %d admitted, %d shed, %d degraded, %d timed out\n",
		rep.Queries, rep.Admitted, rep.Shed, rep.Degraded, rep.TimedOut)

	if *out != "" {
		man := telemetry.NewManifest("spaabench", "trace")
		man.SetConfig("queries", *queries)
		man.SetConfig("seed", *seed)
		man.SetConfig("budget", *budget)
		man.Trace = tr
		man.Finalize(time.Time{}, 0, telemetry.ManifestOptions{Deterministic: true})
		if err := man.WriteFile(*out); err != nil {
			return err
		}
	}
	if *chrome != "" {
		tracer := telemetry.NewTracer()
		tracer.AddTraceReport(tr)
		if err := tracer.WriteFile(*chrome); err != nil {
			return err
		}
	}

	if *gate {
		rep2, tr2 := run()
		b1, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		b2, err := json.Marshal(tr2)
		if err != nil {
			return err
		}
		if !bytes.Equal(b1, b2) {
			return fmt.Errorf("trace gate: two deterministic runs produced different spaa-trace/v1 output (%d vs %d bytes)", len(b1), len(b2))
		}
		if err := service.VerifyTraceCoverage(rep, tr); err != nil {
			return fmt.Errorf("trace gate: %w", err)
		}
		if err := service.VerifyTraceCoverage(rep2, tr2); err != nil {
			return fmt.Errorf("trace gate: %w", err)
		}
		fmt.Printf("trace gate: OK (%d bytes, %d sampled, %d tail traces covered)\n",
			len(b1), tr.Sampled, len(rep.TraceTailIDs))
	}
	return nil
}
