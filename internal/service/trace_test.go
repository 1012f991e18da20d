package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestHTTPTraceHeaderRoundTrip is the satellite contract: query
// responses carry X-Spaa-Trace-Id, and a caller-supplied W3C
// traceparent header continues the caller's trace ID through the stack.
func TestHTTPTraceHeaderRoundTrip(t *testing.T) {
	col := trace.NewCollector(trace.Config{Seed: 1})
	s := newTestService(Config{Trace: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest("GET", ts.URL+"/query/sssp?n=16&m=64&u=4&seed=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := trace.FormatTraceparent(trace.TraceID(0xfeedface), trace.SpanID(0xbead))
	req.Header.Set("traceparent", parent)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("traced query = %d, want 200", res.StatusCode)
	}
	want := trace.TraceID(0xfeedface).String()
	if got := res.Header.Get("X-Spaa-Trace-Id"); got != want {
		t.Fatalf("X-Spaa-Trace-Id = %q, want %q (traceparent continuation)", got, want)
	}
	var resp Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != want {
		t.Fatalf("response body trace_id = %q, want %q", resp.TraceID, want)
	}

	// Without a traceparent the service mints its own ID.
	res2, err := http.Get(ts.URL + "/query/sssp?n=16&m=64&u=4&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if got := res2.Header.Get("X-Spaa-Trace-Id"); got == "" || got == want {
		t.Fatalf("untraced-ingress query got trace id %q", got)
	}
}

// TestHTTPShedCarriesTraceWithShedSpan: a 429 response still carries
// X-Spaa-Trace-Id, and the shed query's trace is tail-sampled with a
// shed span naming the refusal reason.
func TestHTTPShedCarriesTraceWithShedSpan(t *testing.T) {
	col := trace.NewCollector(trace.Config{Seed: 1})
	s := newTestService(Config{QuotaTokens: 1, QuotaRefillMilli: 1, Trace: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() *http.Response {
		res, err := http.Get(ts.URL + "/query/sssp?n=16&m=64&tenant=acme")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := get()
	first.Body.Close()
	second := get()
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota query = %d, want 429", second.StatusCode)
	}
	shedID := second.Header.Get("X-Spaa-Trace-Id")
	if shedID == "" {
		t.Fatal("429 response missing X-Spaa-Trace-Id")
	}
	rep := col.Report()
	tr := rep.FindTrace(shedID)
	if tr == nil {
		t.Fatalf("shed trace %s not sampled (tail sampler must always keep sheds)", shedID)
	}
	if tr.Flags&trace.FlagShed == 0 {
		t.Errorf("shed trace flags = %s, want shed", tr.Flags)
	}
	span := tr.SpanByStage(trace.StageShed)
	if span == nil || span.Detail != "quota" {
		t.Errorf("shed span missing or wrong reason: %+v", span)
	}
}

// TestChaosTraceCoverage is the acceptance criterion at package level: a
// deterministic campaign satisfies the sampler counter invariant and
// every degraded/timed-out query is a sampled trace whose spans cover
// admission → rung → engine run.
func TestChaosTraceCoverage(t *testing.T) {
	run := func(dropDegraded bool) (*ChaosReport, *trace.Report) {
		col := trace.NewCollector(trace.Config{Seed: 1, Capacity: 512, DropDegraded: dropDegraded})
		svc := New(metrics.NewRegistry(), Config{
			Workers: 2, QueueCap: 4, MaxRetries: 1,
			QuotaTokens: 16, QuotaRefillMilli: 100,
			Budget: 256, Seed: 1,
			Clock: &LogicalClock{}, Trace: col,
		})
		rep := RunChaos(svc, ChaosConfig{
			Queries: 120, Seed: 1, Tenants: 4, MeanGap: 10,
			N: 48, M: 192, K: 4, Budget: 256, Deterministic: true,
		})
		return rep, col.Report()
	}

	rep, tr := run(false)
	if len(rep.TraceTailIDs) == 0 {
		t.Fatal("campaign produced no degraded/timed-out queries; coverage test has no teeth")
	}
	if err := VerifyTraceCoverage(rep, tr); err != nil {
		t.Fatalf("coverage gate tripped on a healthy sampler: %v", err)
	}
	if tr.Started != tr.Sampled+tr.Dropped {
		t.Errorf("counter invariant broken: %d != %d + %d", tr.Started, tr.Sampled, tr.Dropped)
	}
	if tr.Started != int64(rep.Queries) {
		t.Errorf("started %d traces for %d queries", tr.Started, rep.Queries)
	}

	// Byte determinism across reruns, the trace-smoke CI contract.
	_, tr2 := run(false)
	b1, _ := json.Marshal(tr)
	b2, _ := json.Marshal(tr2)
	if !bytes.Equal(b1, b2) {
		t.Error("two deterministic campaigns serialized different trace reports")
	}

	// The seeded misconfiguration must trip the gate — the negative test
	// CI leans on.
	repBad, trBad := run(true)
	if err := VerifyTraceCoverage(repBad, trBad); err == nil {
		t.Error("DropDegraded misconfiguration passed the coverage gate")
	}
}

// TestRunSpanTotalsMatchEngineStats: a run span's steps, spikes and
// deliveries are the snn.Stats of the engine runs it covers — the exact
// rung's single run, every replica of an NMR vote, every self-check
// attempt — rebuilt here from independent faults.Run calls on fresh
// compiles under the seeds the ladder derives.
func TestRunSpanTotalsMatchEngineStats(t *testing.T) {
	type totals struct{ steps, spikes, deliveries int64 }
	add := func(sum *totals, r faults.RunResult) {
		sum.steps += r.Res.Stats.Steps
		sum.spikes += r.Res.Stats.Spikes
		sum.deliveries += r.Res.Stats.Deliveries
	}
	runSpans := func(t *testing.T, s *Service, col *trace.Collector, q Query) []trace.Span {
		t.Helper()
		resp := s.Execute(q, 0)
		tr := col.Report().FindTrace(resp.TraceID)
		if tr == nil {
			t.Fatalf("trace %q not sampled", resp.TraceID)
		}
		var spans []trace.Span
		for _, sp := range tr.Spans {
			if sp.Stage == trace.StageRun {
				spans = append(spans, sp)
			}
		}
		return spans
	}
	check := func(t *testing.T, sp trace.Span, want totals) {
		t.Helper()
		got := totals{sp.Steps, sp.Spikes, sp.Deliveries}
		if got != want || got.steps == 0 {
			t.Errorf("%s run span totals %+v, summed engine stats %+v", sp.Detail, got, want)
		}
	}

	t.Run("exact", func(t *testing.T) {
		col := trace.NewCollector(trace.Config{Seed: 1, KeepEvery: 1})
		s := newTestService(Config{Trace: col})
		q := testQuery("sssp")
		spans := runSpans(t, s, col, q)
		if len(spans) != 1 || spans[0].Detail != "wavefront" {
			t.Fatalf("exact query run spans = %+v, want one wavefront", spans)
		}
		var want totals
		add(&want, faults.Run(core.BuildSSSP(buildGraph(q)), q.Src, -1, faults.Model{}, 0))
		check(t, spans[0], want)
	})

	t.Run("nmr and selfcheck", func(t *testing.T) {
		col := trace.NewCollector(trace.Config{Seed: 1, KeepEvery: 1})
		s := newTestService(Config{Model: faults.Model{DropProb: 0.1, Seed: 9}, MaxRetries: 1, Seed: 42, Trace: col})
		q := testQuery("sssp")
		q.GraphSeed = 0 // both NMR votes and the first self-check attempt fail here
		g := buildGraph(q)
		model := s.cfg.Model.WithSeed(s.querySeed(q))
		var nmrSeen, checkSeen int
		for _, sp := range runSpans(t, s, col, q) {
			var want totals
			switch sp.Detail {
			case "nmr vote":
				m := model
				if nmrSeen > 0 {
					m = model.WithSeed(faults.DeriveSeed(model.Seed, "service-nmr-retry", nmrSeen))
				}
				nmrSeen++
				for r := 0; r < s.cfg.NMRReplicas; r++ {
					seed := m.Seed
					if r > 0 {
						seed = faults.DeriveSeed(m.Seed, "nmr-replica", r)
					}
					add(&want, faults.Run(core.BuildSSSP(g), q.Src, -1, m.WithSeed(seed), 0))
				}
			case "selfcheck":
				checkSeen++
				m := model.WithSeed(faults.DeriveSeed(model.Seed, "service-selfcheck", 0))
				attempts := faults.SSSPWithSelfCheck(g, q.Src, m, s.cfg.MaxRetries).Attempts
				if attempts < 2 {
					t.Fatalf("selfcheck verified on its first attempt; the case must sum retries")
				}
				for a := 0; a < attempts; a++ {
					ma := m
					if a > 0 {
						ma = m.WithSeed(faults.DeriveSeed(m.Seed, "selfcheck-retry", a))
					}
					add(&want, faults.Run(core.BuildSSSP(g), q.Src, -1, ma, 0))
				}
			default:
				t.Fatalf("unexpected run span %q under faults", sp.Detail)
			}
			check(t, sp, want)
		}
		if nmrSeen != 2 || checkSeen != 1 {
			t.Fatalf("saw %d nmr vote and %d selfcheck run spans, want 2 and 1", nmrSeen, checkSeen)
		}
	})
}
