package metrics

import (
	"fmt"

	"repro/internal/trace"
)

// Canonical metric names of the query-tracing families. The same
// families are written per query by the live service (finishTrace) and
// in bulk by FoldTrace when a remote manifest's spaa-trace/v1 section
// is ingested, so a scrape looks identical either way — the same
// contract as the probe-fabric and energy families.
const (
	MetricTraceStarted    = "spaa_trace_started_total"
	MetricTraceSampled    = "spaa_trace_sampled_total"
	MetricTraceDropped    = "spaa_trace_dropped_total"
	MetricTraceSpans      = "spaa_trace_spans_total"
	MetricTraceStageUnits = "spaa_trace_stage_units"
)

// traceStageNames is the bounded stage-label vocabulary (the trace
// package's span taxonomy); spans with other stage names fold into
// "other" so remote manifests cannot grow series cardinality.
var traceStageNames = []string{
	trace.StageQuery, trace.StageAdmission, trace.StageQueueWait,
	trace.StageShed, trace.StageBreaker, trace.StageRung, trace.StageRetry,
	trace.StageBuild, trace.StageRun, "other",
}

// traceStageName clamps a span stage onto the bounded vocabulary.
func traceStageName(stage string) string {
	for _, n := range traceStageNames[:len(traceStageNames)-1] {
		if n == stage {
			return stage
		}
	}
	return "other"
}

// TraceCounters resolves the four sampler counters, creating them at
// zero on first use — the single source of truth for their help text.
func TraceCounters(reg *Registry) (started, sampled, dropped, spans *Counter) {
	started = reg.Counter(MetricTraceStarted, "query traces started (one per query reaching the service)")
	sampled = reg.Counter(MetricTraceSampled, "query traces kept by the tail sampler")
	dropped = reg.Counter(MetricTraceDropped, "query traces dropped by the tail sampler (healthy, fast, not hash-kept)")
	spans = reg.Counter(MetricTraceSpans, "spans recorded across all query traces, sampled or dropped")
	return
}

// TraceStageHist resolves the per-stage span-duration histogram for a
// (clamped) stage label. Durations are in logical units — the
// service-clock cost units the span timeline runs on.
func TraceStageHist(reg *Registry, stage string) *Histogram {
	return reg.Histogram(MetricTraceStageUnits, "span duration in logical units by stage",
		Label{Key: "stage", Value: traceStageName(stage)})
}

// MaterializeTraceFamilies pre-creates every spaa_trace_* collector at
// zero so a scrape shows the families before the first query (the
// serve-smoke CI job greps for them).
func MaterializeTraceFamilies(reg *Registry) {
	TraceCounters(reg)
	for _, stage := range traceStageNames {
		TraceStageHist(reg, stage)
	}
}

// FoldTrace folds a spaa-trace/v1 report into the trace families:
// counter totals are added, and every span of every sampled trace is
// observed into the per-stage duration histograms. Called once per
// ingested manifest, off the hot path.
func FoldTrace(reg *Registry, r *trace.Report) {
	if reg == nil || r == nil {
		return
	}
	started, sampled, dropped, spans := TraceCounters(reg)
	started.Add(r.Started)
	sampled.Add(r.Sampled)
	dropped.Add(r.Dropped)
	spans.Add(r.Spans)
	for _, tr := range r.Traces {
		for i := range tr.Spans {
			TraceStageHist(reg, tr.Spans[i].Stage).Observe(tr.Spans[i].Dur)
		}
	}
}

// checkTraceCounts reports a negative sampler count in a pushed
// spaa-trace/v1 section: FoldTrace adds each to a counter, which only
// grows.
func checkTraceCounts(r *trace.Report) error {
	if r != nil && min(r.Started, r.Sampled, r.Dropped, r.Spans) < 0 {
		return fmt.Errorf("metrics: manifest trace counts are negative (started %d, sampled %d, dropped %d, spans %d)",
			r.Started, r.Sampled, r.Dropped, r.Spans)
	}
	return nil
}
