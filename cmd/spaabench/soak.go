package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// cmdSoak drives sustained concurrent load through the instrumented
// stack: -workers goroutines each run -iters seeded workloads from the
// mix, and every finished run manifest is folded into a local metrics
// registry (metrics.Bridge.Fold). With -addr each manifest is also
// POSTed to a running `spaabench serve`, whose dashboard and /metrics
// scrape then show the live traffic.
func cmdSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	workers := fs.Int("workers", 8, "concurrent worker goroutines")
	iters := fs.Int("iters", 16, "runs per worker")
	seed := fs.Int64("seed", 1, "campaign seed (derives every run's workload seed)")
	mix := fs.String("mix", strings.Join(harness.SoakWorkloads, ","), "comma-separated workload mix")
	addr := fs.String("addr", "", "a running `spaabench serve` to POST run manifests to (host:port or full base URL)")
	deterministic := fs.Bool("deterministic", false, "emit manifests without wall-clock fields")
	printMetrics := fs.Bool("print-metrics", false, "print the local registry's Prometheus exposition after the campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkCounts("soak", countFlag{"workers", int64(*workers)}, countFlag{"iters", int64(*iters)}); err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	bridge := metrics.NewBridge(reg)
	var client *http.Client
	base := strings.TrimSuffix(*addr, "/")
	if *addr != "" {
		if !strings.Contains(base, "://") {
			base = "http://" + base // serve prints bare host:port; accept it here too
		}
		client = &http.Client{Timeout: 30 * time.Second}
	}
	cfg := harness.SoakConfig{
		Workers:       *workers,
		Iters:         *iters,
		Seed:          *seed,
		Mix:           strings.Split(*mix, ","),
		Deterministic: *deterministic,
		Submit: func(man *telemetry.Manifest) error {
			if err := bridge.Fold(man); err != nil {
				return err
			}
			if client == nil {
				return nil
			}
			return postManifest(client, base, man)
		},
	}

	rep, err := harness.Soak(cfg)
	if rep != nil {
		fmt.Printf("soak: %d workers x %d iters (mix %s) in %.2fs\n",
			*workers, *iters, *mix, rep.Wall.Seconds())
		fmt.Printf("runs=%d errors=%d rate=%.1f runs/s\n", rep.Runs, rep.Errors, rep.RatePerSecond())
		fmt.Printf("totals: spikes=%d deliveries=%d steps=%d max_queue_depth=%d silent_steps_skipped=%d\n",
			rep.Spikes, rep.Deliveries, rep.Steps, rep.MaxQueueDepth, rep.SilentStepsSkipped)
		fmt.Printf("throughput: %.0f steps/s, %.0f deliveries/s aggregate\n",
			rep.StepsPerSecond(), rep.DeliveriesPerSecond())
		names := make([]string, 0, len(rep.PerWorkload))
		//lint:deterministic keys are sorted below before use
		for name := range rep.PerWorkload {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-8s %d runs\n", name, rep.PerWorkload[name])
		}
	}
	if *printMetrics {
		if werr := reg.WritePrometheus(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}
