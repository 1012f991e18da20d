package metrics

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestIngestRejectsOversizedBody: a POST /runs body past the ingest cap
// must be refused with 413, not read to completion (or worse, OOM the
// daemon), and must count as an ingest error.
func TestIngestRejectsOversizedBody(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A syntactically valid JSON prefix followed by padding past the
	// cap: the JSON decoder keeps reading until MaxBytesReader trips.
	pad := bytes.Repeat([]byte(" "), maxManifestBytes+1024)
	body := append([]byte(`{"schema":"spaa-run-manifest/v1","pad":"`), pad...)
	body = append(body, `"}`...)
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413", resp.StatusCode)
	}
	if got := srv.badRequests.Value(); got != 1 {
		t.Fatalf("spaa_ingest_errors_total = %d, want 1", got)
	}
	// The daemon is still healthy afterwards.
	ok, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized ingest = %d", ok.StatusCode)
	}
}

// TestIngestRejectsWrongContentType: /runs ingests JSON manifests only.
func TestIngestRejectsWrongContentType(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded"} {
		resp, err := http.Post(ts.URL+"/runs", ct, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q ingest = %d, want 415", ct, resp.StatusCode)
		}
	}
	// Parameters on the media type are fine.
	resp, err := http.Post(ts.URL+"/runs", "application/json; charset=utf-8",
		strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parameterized application/json = %d, want 400 (parse error)", resp.StatusCode)
	}
}

// TestEventsTeardownOnDisconnect: dropping an /events subscriber must
// release its handler goroutine and its subscription entry promptly —
// a leaked handler would pile up one goroutine per reconnecting
// dashboard for the life of the daemon.
func TestEventsTeardownOnDisconnect(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()

	const subscribers = 4
	cancels := make([]context.CancelFunc, 0, subscribers)
	for i := 0; i < subscribers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read the hello frame so the subscription is fully registered.
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() || !strings.HasPrefix(sc.Text(), "event: hello") {
			t.Fatalf("subscriber %d: no hello frame (got %q)", i, sc.Text())
		}
		go func() {
			defer resp.Body.Close()
			for sc.Scan() { // drain until the context cancel tears it down
			}
		}()
	}
	if got := srv.subscriberCount(); got != subscribers {
		t.Fatalf("subscriber count = %d, want %d", got, subscribers)
	}

	for _, cancel := range cancels {
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.subscriberCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers not torn down: %d still registered", srv.subscriberCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The handler goroutines must be gone too (allow slack for the test
	// server's own transient conns and the drain goroutines above).
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after disconnect = %d, want <= %d+2", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestRejectsNegativeCounts: a pushed manifest with a negative
// cost value or trace count is refused with 400 before anything folds —
// the scrape's spaa_* families stay as they were (only the ingest-error
// count moves) and the run is not indexed.
func TestIngestRejectsNegativeCounts(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The spaa_* lines of a scrape, minus the ingest-error count; the
	// go_* runtime samples move on every scrape.
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if l := sc.Text(); strings.HasPrefix(l, "spaa_") && !strings.HasPrefix(l, "spaa_ingest_errors_total") {
				b.WriteString(l + "\n")
			}
		}
		return b.String()
	}
	before := scrape()
	for i, body := range []string{
		`{"schema":"spaa-run-manifest/v1","tool":"x","command":"sssp","stats":{"spikes":5,"deliveries":-3,"steps":2}}`,
		`{"schema":"spaa-run-manifest/v1","tool":"x","command":"sssp","stats":{"spikes":5,"deliveries":3,"steps":2},"trace":{"schema":"spaa-trace/v1","started":-1}}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("negative-count ingest %s = %d, want 400", body, resp.StatusCode)
		}
		if after := scrape(); after != before {
			t.Errorf("scrape moved on refused manifest %s:\nbefore:\n%s\nafter:\n%s", body, before, after)
		}
		if got := srv.runsIngested.Value(); got != 0 {
			t.Errorf("spaa_runs_ingested_total = %d, want 0", got)
		}
		if got := srv.badRequests.Value(); got != int64(i+1) {
			t.Errorf("spaa_ingest_errors_total = %d, want %d", got, i+1)
		}
	}
}
