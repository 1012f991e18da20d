package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxTraceLog bounds the server's retained trace log: the collector's
// ring overwrites oldest-first, so the server keeps its own bounded copy
// of flushed traces for /traces and the dashboard waterfall.
const maxTraceLog = 512

// maxRunIndex bounds the in-memory run index; older summaries fall off
// the front while the aggregate totals keep counting, so a long soak
// cannot grow the daemon without bound.
const maxRunIndex = 4096

// maxManifestBytes caps a POST /runs body: a manifest is a bounded
// summary document, never tens of megabytes, so anything larger is a
// client bug or abuse and is answered 413 before it is read.
const maxManifestBytes = 32 << 20

// RunSummary is the per-run record the server keeps (and streams over
// /events) for every ingested manifest: the headline cost measures, not
// the full series.
type RunSummary struct {
	Seq     int64  `json:"seq"`
	Tool    string `json:"tool,omitempty"`
	Command string `json:"command"`

	Spikes             int64 `json:"spikes"`
	Deliveries         int64 `json:"deliveries"`
	Steps              int64 `json:"steps"`
	MaxQueueDepth      int64 `json:"max_queue_depth"`
	SilentStepsSkipped int64 `json:"silent_steps_skipped"`

	WallMS float64 `json:"wall_ms"`

	// StepsPerSec and DeliveriesPerSec come from the manifest's
	// spaa-perf/v1 section when present (zero otherwise, including for
	// deterministic runs, whose perf wall data is zeroed by design).
	StepsPerSec      float64 `json:"steps_per_sec"`
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`

	// Quantiles are the server's current p50/p90/p99 estimates of per-run
	// wall time (ms), refreshed on every ingest so the dashboard can show
	// latency percentiles without parsing histogram buckets.
	WallP50 float64 `json:"wall_p50"`
	WallP90 float64 `json:"wall_p90"`
	WallP99 float64 `json:"wall_p99"`

	// Energy headline figures from the manifest's spaa-energy/v1 section
	// when present: the classic comparator total, the spiking total on
	// the reference platform, and the best advantage across platforms
	// (milli-x; 0 means the run carried no energy section or no
	// published tariff).
	ClassicMilliPJ       int64 `json:"classic_millipj,omitempty"`
	SpikingMilliPJ       int64 `json:"spiking_millipj,omitempty"`
	EnergyAdvantageMilli int64 `json:"energy_advantage_milli,omitempty"`
}

// Totals aggregates every ingested run (including runs already evicted
// from the bounded index).
type Totals struct {
	Runs               int64 `json:"runs"`
	Spikes             int64 `json:"spikes"`
	Deliveries         int64 `json:"deliveries"`
	Steps              int64 `json:"steps"`
	SilentStepsSkipped int64 `json:"silent_steps_skipped"`
}

// Server is the live-metrics daemon behind `spaabench serve`: it owns a
// Registry, ingests spaa-run-manifest/v1 documents over POST /runs,
// folds each through Bridge.Fold (the same fold spaabench soak applies
// locally, so in-process and pushed runs scrape identically), and fans
// per-run summaries out to SSE subscribers.
type Server struct {
	reg *Registry

	// bridge folds every ingested manifest into the canonical families.
	bridge *Bridge
	// runtime samples Go process health (goroutines, heap, GC pauses)
	// at the top of every /metrics scrape.
	runtime *RuntimeCollector

	runsIngested *Counter
	badRequests  *Counter
	wallHist     *Histogram
	runSpikes    *Histogram

	mu       sync.Mutex
	seq      int64                    // guarded by mu
	runs     []RunSummary             // guarded by mu
	totals   Totals                   // guarded by mu
	subs     map[chan []byte]struct{} // guarded by mu
	traceLog []*trace.Trace           // guarded by mu

	// queries, when set via AttachQueries before Handler, serves the
	// /query/ subtree (the resilience layer's endpoints).
	queries http.Handler
	// traceSrc, when set via AttachTraces, supplies live sampler counters
	// to GET /traces alongside the retained log.
	traceSrc *trace.Collector

	started time.Time // set once in NewServer, read-only afterwards
}

// AttachQueries mounts h on the /query/ subtree of Handler. The service
// layer lives in a package that imports metrics (for its spaa_service_*
// families), so the server takes it as an opaque handler rather than
// depending on it. Call before Handler.
func (s *Server) AttachQueries(h http.Handler) { s.queries = h }

// AttachTraces wires a live span collector into the server: a background
// flusher drains newly sampled traces into the bounded retained log
// every interval, and GET /traces serves the log plus the collector's
// sampler counters. The returned stop function performs a final drain
// and joins the flusher goroutine — call it on shutdown (the
// goroutine-leak test's contract). Call before Handler.
func (s *Server) AttachTraces(c *trace.Collector, interval time.Duration) (stop func()) {
	s.traceSrc = c
	return c.StartFlusher(interval, s.addTraces)
}

// addTraces appends a flushed batch to the bounded retained log.
func (s *Server) addTraces(batch []*trace.Trace) {
	s.mu.Lock()
	s.traceLog = append(s.traceLog, batch...)
	if len(s.traceLog) > maxTraceLog {
		s.traceLog = s.traceLog[len(s.traceLog)-maxTraceLog:]
	}
	s.mu.Unlock()
}

// NewServer returns a server folding ingested runs into reg.
func NewServer(reg *Registry) *Server {
	return &Server{
		reg:          reg,
		bridge:       NewBridge(reg),
		runtime:      NewRuntimeCollector(reg),
		runsIngested: reg.Counter("spaa_runs_ingested_total", "run manifests accepted over POST /runs"),
		badRequests:  reg.Counter("spaa_ingest_errors_total", "rejected ingest requests"),
		wallHist:     reg.Histogram("spaa_run_wall_ms", "per-run wall time in milliseconds"),
		runSpikes:    reg.Histogram("spaa_run_spikes", "per-run spike totals"),
		subs:         make(map[chan []byte]struct{}),
		//lint:wallclock daemon start time is operational uptime, not simulated time
		started: time.Now(),
	}
}

// Registry returns the server's registry (the /metrics source).
func (s *Server) Registry() *Registry { return s.reg }

// Ingest folds one run manifest into the registry and run index and
// returns the summary broadcast to /events subscribers. A manifest with
// a negative value that would fold into a counter (refused by
// Bridge.Fold, or a negative trace count) changes nothing and returns
// an error. Safe for concurrent use.
func (s *Server) Ingest(m *telemetry.Manifest) (RunSummary, error) {
	sum := RunSummary{Tool: m.Tool, Command: m.Command, WallMS: m.WallMS}
	if m.Perf != nil {
		sum.StepsPerSec = m.Perf.StepsPerSec
		sum.DeliveriesPerSec = m.Perf.DeliveriesPerSec
	}
	if m.Energy != nil {
		sum.ClassicMilliPJ = m.Energy.ClassicMilliPJ
		sum.SpikingMilliPJ = m.Energy.ReferenceMilliPJ()
		sum.EnergyAdvantageMilli = m.Energy.BestAdvantageMilli()
	}
	if m.Stats != nil {
		sum.Spikes = m.Stats.Spikes
		sum.Deliveries = m.Stats.Deliveries
		sum.Steps = m.Stats.Steps
		sum.MaxQueueDepth = m.Stats.MaxQueueDepth
		sum.SilentStepsSkipped = m.Stats.SilentStepsSkipped
	}
	if err := checkTraceCounts(m.Trace); err != nil {
		return RunSummary{}, err
	}
	if err := s.bridge.Fold(m); err != nil {
		return RunSummary{}, err
	}
	command := m.Command
	if command == "" {
		command = "unknown"
	}
	s.runsIngested.Inc()
	s.reg.Counter("spaa_runs_total", "ingested runs by workload", Label{Key: "workload", Value: command}).Inc()
	s.wallHist.Observe(int64(m.WallMS))
	if m.Stats != nil {
		s.runSpikes.Observe(m.Stats.Spikes)
	}
	if m.Trace != nil {
		// Pushed spaa-trace/v1 sections land in the same spaa_trace_*
		// families the live service writes, and their sampled traces join
		// the retained log behind /traces.
		FoldTrace(s.reg, m.Trace)
		s.addTraces(m.Trace.Traces)
	}

	s.mu.Lock()
	s.seq++
	sum.Seq = s.seq
	sum.WallP50 = s.wallHist.Quantile(0.50)
	sum.WallP90 = s.wallHist.Quantile(0.90)
	sum.WallP99 = s.wallHist.Quantile(0.99)
	s.totals.Runs++
	s.totals.Spikes += sum.Spikes
	s.totals.Deliveries += sum.Deliveries
	s.totals.Steps += sum.Steps
	s.totals.SilentStepsSkipped += sum.SilentStepsSkipped
	s.runs = append(s.runs, sum)
	if len(s.runs) > maxRunIndex {
		s.runs = s.runs[len(s.runs)-maxRunIndex:]
	}
	payload, _ := json.Marshal(sum)
	//lint:deterministic broadcast order across subscribers is immaterial
	for ch := range s.subs {
		// Non-blocking: a stalled subscriber drops events rather than
		// stalling ingestion.
		select {
		case ch <- payload:
		default:
		}
	}
	s.mu.Unlock()
	return sum, nil
}

// Handler returns the daemon's full route table:
//
//	GET  /         single-file live dashboard
//	GET  /metrics  Prometheus text exposition of the registry
//	GET  /healthz  liveness JSON (uptime, run count)
//	GET  /runs     JSON index of ingested run summaries + totals
//	POST /runs     ingest one spaa-run-manifest/v1 document
//	GET  /traces   JSON log of tail-sampled query traces (spans inline)
//	GET  /events   SSE stream of per-run summaries (event: run)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleDashboard)
	scrape := s.reg.Handler()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		s.runtime.Update() // sample process health at scrape time
		scrape.ServeHTTP(w, req)
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/events", s.handleEvents)
	if s.queries != nil {
		mux.Handle("/query/", s.queries)
	}
	return mux
}

// subscriberCount reports the live /events subscriber count (test hook
// for the disconnect-teardown leak test).
func (s *Server) subscriberCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// ingestContentTypeOK accepts application/json (with optional
// parameters) on POST /runs.
func ingestContentTypeOK(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json"
}

func (s *Server) handleDashboard(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	runs := s.totals.Runs
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok": true,
		//lint:wallclock uptime reporting is operational telemetry, not simulated time
		"uptime_ms": time.Since(s.started).Milliseconds(),
		"runs":      runs,
	})
}

// runsResponse is the GET /runs document.
type runsResponse struct {
	Totals Totals       `json:"totals"`
	Count  int          `json:"count"`
	Runs   []RunSummary `json:"runs"`
}

func (s *Server) handleRuns(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		s.mu.Lock()
		resp := runsResponse{
			Totals: s.totals,
			Count:  len(s.runs),
			Runs:   append([]RunSummary(nil), s.runs...),
		}
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	case http.MethodPost:
		if !ingestContentTypeOK(req.Header.Get("Content-Type")) {
			s.badRequests.Inc()
			http.Error(w, fmt.Sprintf("unsupported Content-Type %q (want application/json)",
				req.Header.Get("Content-Type")), http.StatusUnsupportedMediaType)
			return
		}
		man, err := telemetry.ReadManifest(http.MaxBytesReader(w, req.Body, maxManifestBytes))
		if err != nil {
			s.badRequests.Inc()
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("manifest exceeds the %d-byte ingest cap", tooLarge.Limit),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum, err := s.Ingest(man)
		if err != nil {
			s.badRequests.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(sum)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// tracesResponse is the GET /traces document: the collector's live
// sampler counters (zero when no collector is attached) plus the
// retained tail-sampled traces, oldest first.
type tracesResponse struct {
	Started int64          `json:"started"`
	Sampled int64          `json:"sampled"`
	Dropped int64          `json:"dropped"`
	Evicted int64          `json:"evicted"`
	Count   int            `json:"count"`
	Traces  []*trace.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var resp tracesResponse
	if s.traceSrc != nil {
		// Drain anything sampled since the last flusher tick so /traces
		// is read-your-writes for sequential clients.
		s.traceSrc.FlushNew(s.addTraces)
		resp.Started, resp.Sampled, resp.Dropped, resp.Evicted, _ = s.traceSrc.Counters()
	}
	s.mu.Lock()
	resp.Traces = append([]*trace.Trace(nil), s.traceLog...)
	s.mu.Unlock()
	resp.Count = len(resp.Traces)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleEvents serves the SSE stream: a `hello` event with current
// totals, then one `run` event per ingested manifest.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch := make(chan []byte, 64)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	hello, _ := json.Marshal(s.totals)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}()

	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hello)
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case payload := <-ch:
			fmt.Fprintf(w, "event: run\ndata: %s\n\n", payload)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
