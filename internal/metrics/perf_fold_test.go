package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/telemetry"
)

func perfReport() *perf.Report {
	return &perf.Report{
		Schema: perf.Schema,
		Steps:  100, Spikes: 40, Deliveries: 2500, MaxQueueDepth: 17,
		DeliveriesPerStepMilli: 25000,
		WallMS:                 12.5, StepsPerSec: 8000, DeliveriesPerSec: 200000,
		Phases: []perf.PhaseReport{
			{Name: "build", WallMS: 3.5}, {Name: "run", WallMS: 8}, {Name: "report", WallMS: 1},
		},
		AllocObjects: 10, AllocBytes: 4096, GCCycles: 2, GCPauseNS: 500,
	}
}

func TestBridgeObservePerf(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)
	b.Fold(&telemetry.Manifest{Perf: perfReport()})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	body := w.String()
	if got := scrapeValue(t, body, MetricPerfStepsPerSec); got != 8000 {
		t.Errorf("steps/sec gauge = %d, want 8000", got)
	}
	if got := scrapeValue(t, body, MetricPerfDelivPerSec); got != 200000 {
		t.Errorf("deliveries/sec gauge = %d, want 200000", got)
	}
	if got := scrapeValue(t, body, MetricQueueDepth); got != 17 {
		t.Errorf("queue depth = %d, want 17 (folded from perf report)", got)
	}
	if got := scrapeValue(t, body, MetricPerfAllocBytes); got != 4096 {
		t.Errorf("alloc bytes = %d, want 4096", got)
	}
	if got := scrapeValue(t, body, MetricPerfGCCycles); got != 2 {
		t.Errorf("gc cycles = %d, want 2", got)
	}
	if got := scrapeValue(t, body, MetricPerfPhaseWall+`_count{phase="build"}`); got != 1 {
		t.Errorf("build phase observations = %d, want 1", got)
	}

	// The rate gauges are high-water marks: a slower later run must not
	// lower them.
	slow := perfReport()
	slow.StepsPerSec, slow.DeliveriesPerSec = 10, 20
	b.Fold(&telemetry.Manifest{Perf: slow})
	w.Reset()
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, w.String(), MetricPerfStepsPerSec); got != 8000 {
		t.Errorf("steps/sec high-water dropped to %d after a slow run", got)
	}
}

// TestBridgeObservePerfDeterministic: a deterministic report (zeroed
// wall half) must fold queue occupancy but leave the wall-derived
// families untouched — there is no real measurement to record.
func TestBridgeObservePerfDeterministic(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)
	r := perfReport()
	r.ZeroWallClock()
	b.Fold(&telemetry.Manifest{Perf: r})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	body := w.String()
	if got := scrapeValue(t, body, MetricPerfStepsPerSec); got != 0 {
		t.Errorf("deterministic report set steps/sec = %d, want 0", got)
	}
	if got := scrapeValue(t, body, MetricPerfPhaseWall+`_count{phase="run"}`); got != 0 {
		t.Errorf("deterministic report observed phase wall: %d", got)
	}
	if got := scrapeValue(t, body, MetricQueueDepth); got != 17 {
		t.Errorf("queue depth = %d, want 17 (counter-derived, always folds)", got)
	}

	var nilBridge *Bridge
	nilBridge.Fold(&telemetry.Manifest{Perf: perfReport()}) // must not panic
	b.Fold(&telemetry.Manifest{})                           // must not panic
}

// TestBridgeObservePerfClampsPhase: unknown phase names fold into the
// bounded "other" series instead of minting new label values.
func TestBridgeObservePerfClampsPhase(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)
	r := perfReport()
	r.Phases = []perf.PhaseReport{{Name: "totally-unbounded-name-42", WallMS: 5}}
	b.Fold(&telemetry.Manifest{Perf: r})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	body := w.String()
	if got := scrapeValue(t, body, MetricPerfPhaseWall+`_count{phase="other"}`); got != 1 {
		t.Errorf("unknown phase not clamped to other: %d", got)
	}
	if strings.Contains(body, "totally-unbounded-name-42") {
		t.Error("unbounded phase name leaked into the exposition")
	}
}

// TestServerIngestPerfSection: a pushed manifest carrying a perf section
// populates the throughput families and the run summary's rate fields.
func TestServerIngestPerfSection(t *testing.T) {
	srv := NewServer(NewRegistry())
	m := testManifest(10, 30, 4)
	m.Perf = perfReport()
	sum, err := srv.Ingest(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum.StepsPerSec != 8000 || sum.DeliveriesPerSec != 200000 {
		t.Errorf("summary rates = %v/%v, want 8000/200000", sum.StepsPerSec, sum.DeliveriesPerSec)
	}
	var w strings.Builder
	if err := srv.Registry().WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, w.String(), MetricPerfStepsPerSec); got != 8000 {
		t.Errorf("scraped steps/sec = %d, want 8000", got)
	}
}

// TestSSEUnderConcurrentScrape is the satellite's race check: one SSE
// subscriber must receive every ingested run event while /metrics is
// being scraped concurrently (each scrape also samples the runtime
// collector). Run with -race in CI.
func TestSSEUnderConcurrentScrape(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	const runs = 32
	seqs := make(chan int64, runs)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "run":
				var sum RunSummary
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sum); err == nil {
					seqs <- sum.Seq
				}
			}
		}
	}()

	// Concurrent scrapers hammer /metrics while runs are ingested.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
				}
			}
		}()
	}

	for i := 0; i < runs; i++ {
		m := testManifest(int64(i+1), 3*int64(i+1), 2)
		m.Perf = perfReport()
		srv.Ingest(m)
	}

	got := make(map[int64]bool, runs)
	deadline := time.After(10 * time.Second)
	for len(got) < runs {
		select {
		case s := <-seqs:
			got[s] = true
		case <-deadline:
			t.Fatalf("received %d/%d run events under concurrent scrape", len(got), runs)
		}
	}
	close(stop)
	wg.Wait()
	for i := int64(1); i <= runs; i++ {
		if !got[i] {
			t.Errorf("run event seq %d never delivered", i)
		}
	}
}
