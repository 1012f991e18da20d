package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// cmdServe runs the live-metrics daemon: a Prometheus-style scrape
// endpoint plus run ingestion and an embedded dashboard. Point a
// `spaabench soak -addr` campaign (or any process POSTing
// spaa-run-manifest/v1 documents to /runs) at it and watch the cost
// measures accumulate live.
//
//	GET  /         live dashboard (single-file HTML)
//	GET  /metrics  Prometheus text exposition
//	GET  /healthz  liveness JSON
//	GET  /runs     JSON run index + totals
//	POST /runs     ingest one run manifest
//	GET  /traces   tail-sampled query traces (spans inline)
//	GET  /events   SSE stream of per-run summaries
//	GET  /query/sssp, /query/khop   resilience-layer query endpoints
//	                (admission control, deadlines, degradation ladder;
//	                traced end to end — responses carry X-Spaa-Trace-Id)
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	preload := fs.String("preload", "", "glob of run-manifest JSON files to ingest at startup (e.g. 'BENCH_*.json')")
	workers := fs.Int("service-workers", 4, "query worker slots (admission control)")
	queueCap := fs.Int("service-queue", 16, "bounded query queue depth; beyond it queries are shed with 429")
	quota := fs.Int64("quota-tokens", 0, "per-tenant token-bucket capacity (0 disables quotas)")
	quotaRefill := fs.Int64("quota-refill-milli", 1000, "quota refill rate in milli-tokens per ms (1000 = one query/ms)")
	budget := fs.Int64("budget", 0, "default per-query deadline in simulated steps (0 = unlimited)")
	drop := fs.Float64("service-drop", 0, "fault-model delivery drop probability for served queries (chaos-in-prod)")
	seed := fs.Int64("service-seed", 1, "seed anchoring the service's fault and retry streams")
	traceCap := fs.Int("trace-capacity", 256, "sampled query-trace ring capacity (0 disables tracing)")
	traceKeep := fs.Int64("trace-keep-every", 8, "keep 1 in N healthy query traces (tail-flagged ones always kept)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := metrics.NewServer(metrics.NewRegistry())
	svcCfg := service.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxRetries:       2,
		QuotaTokens:      *quota,
		QuotaRefillMilli: *quotaRefill,
		Budget:           *budget,
		Model:            faults.Model{DropProb: *drop, Seed: *seed},
		Seed:             *seed,
	}
	if *traceCap > 0 {
		// Wall mode: the live service clock is wall milliseconds, and the
		// trace spans carry wall-µs refinements from the perf tracker.
		svcCfg.Trace = trace.NewCollector(trace.Config{
			Seed: *seed, Capacity: *traceCap, KeepEvery: *traceKeep, Wall: true,
		})
	}
	svc := service.New(srv.Registry(), svcCfg)
	srv.AttachQueries(svc.Handler())
	if svcCfg.Trace != nil {
		stop := srv.AttachTraces(svcCfg.Trace, time.Second)
		defer stop()
	}
	if *preload != "" {
		names, err := filepath.Glob(*preload)
		if err != nil {
			return err
		}
		for _, name := range names {
			man, err := readManifestFile(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spaabench serve: skipping %s: %v\n", name, err)
				continue
			}
			if _, err := srv.Ingest(man); err != nil {
				fmt.Fprintf(os.Stderr, "spaabench serve: skipping %s: %v\n", name, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "preloaded %s (%s)\n", name, man.Command)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("spaabench serve: dashboard http://%s/  metrics http://%s/metrics\n", ln.Addr(), ln.Addr())
	return (&http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}).Serve(ln)
}

// postManifest delivers one run manifest to a serve daemon — the soak
// driver's Submit hook.
func postManifest(client *http.Client, baseURL string, man *telemetry.Manifest) error {
	var body bytes.Buffer
	if err := man.Encode(&body); err != nil {
		return err
	}
	resp, err := client.Post(baseURL+"/runs", "application/json", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /runs: %s", resp.Status)
	}
	return nil
}
