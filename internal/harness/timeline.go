package harness

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// SSSPTimeline renders the Section 3 SSSP wavefront raster together with
// per-step telemetry sparklines (spikes, deliveries, queue depth) on the
// same time axis, plus the engine's cost summary — the `spaabench
// timeline` view. Returns the rendering and the recorder holding the
// run's series (for -metrics / -trace alongside the render); it fails
// when the last spike time is above 2^16 steps, too wide to print.
func SSSPTimeline(g *graph.Graph, src int) (string, *telemetry.Recorder, error) {
	rec := telemetry.NewRecorder()
	net, relays := runWavefront(g, src, rec)
	ids, labels, last, err := wavefrontRows(net, relays)
	if err != nil {
		return "", nil, err
	}

	// Pad row labels and metric names to a common width so the sparkline
	// columns line up under the raster columns.
	metrics := []struct {
		label  string
		series string
	}{
		{"spikes/step", "spikes"},
		{"deliveries/step", "deliveries"},
		{"queue depth", "queue_depth"},
	}
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for _, m := range metrics {
		if len(m.label) > width {
			width = len(m.label)
		}
	}
	for i, l := range labels {
		labels[i] = fmt.Sprintf("%-*s", width, l)
	}

	st := net.TotalStats()
	var b strings.Builder
	fmt.Fprintf(&b, "spiking SSSP wavefront (n=%d, m=%d, src=%d): %d vertices reached, L=%d\n",
		g.N(), g.M(), src, len(ids), last)
	fmt.Fprintf(&b, "engine: steps=%d silent-skipped=%d max-queue=%d spikes=%d deliveries=%d\n",
		st.Steps, st.SilentStepsSkipped, st.MaxQueueDepth, st.Spikes, st.Deliveries)
	b.WriteString(net.RenderRaster(ids, labels, 0, last))
	for _, m := range metrics {
		s := rec.StepSeries(m.series)
		if s == nil {
			continue
		}
		dense := telemetry.Timeline(s, 0, last)
		fmt.Fprintf(&b, "%-*s %s\n", width, m.label, telemetry.Sparkline(dense))
	}
	return b.String(), rec, nil
}

// EngineReport summarizes a run's simulator cost counters including the
// event-driven engine's skip telemetry — the harness-report spelling of
// snn.Stats.
func EngineReport(st snn.Stats) string {
	return fmt.Sprintf("spikes=%d deliveries=%d steps=%d silent-skipped=%d max-queue=%d",
		st.Spikes, st.Deliveries, st.Steps, st.SilentStepsSkipped, st.MaxQueueDepth)
}
