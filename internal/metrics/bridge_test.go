package metrics

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

func TestBridgeCounts(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)

	m := telemetry.NewManifest("spaabench", "test")
	m.Stats = &telemetry.RunStats{Spikes: 4, Deliveries: 9, Steps: 2, MaxQueueDepth: 11, SilentStepsSkipped: 12}
	m.Series = []telemetry.Series{
		{Name: "spikes_per_step", Times: []int64{1, 2}, Values: []int64{3, 1}},
		{Name: "active_per_step", Times: []int64{1, 2}, Values: []int64{5, 3}},
		{Name: "messages_per_round", Times: []int64{0, 1}, Values: []int64{40, 10}},
		{Name: "chip0_sends_per_step", Times: []int64{0}, Values: []int64{99}}, // no live family
	}
	m.Counters = map[string]int64{
		"distance_loads": 1, "distance_stores": 1, "distance_ops": 2, "distance_movement": 16,
		"congest_messages": 50, "congest_bits": 400,
		"fleet_intra": 1, "fleet_inter": 2,
		"neurons": 7, // no live family
	}
	b.Fold(m)

	if got := reg.Counter(MetricSpikes, "").Value(); got != 4 {
		t.Errorf("spikes = %d, want 4", got)
	}
	if got := reg.Counter(MetricDeliveries, "").Value(); got != 9 {
		t.Errorf("deliveries = %d, want 9", got)
	}
	if got := reg.Counter(MetricSteps, "").Value(); got != 2 {
		t.Errorf("steps = %d, want 2", got)
	}
	if got := reg.Counter(MetricActive, "").Value(); got != 8 {
		t.Errorf("active neurons = %d, want 8", got)
	}
	if got := reg.Histogram(MetricStepSpikes, "").Count(); got != 2 {
		t.Errorf("step-spikes observations = %d, want 2", got)
	}
	if got := reg.Counter(MetricDistanceL1, "").Value(); got != 16 {
		t.Errorf("l1 movement = %d, want 16", got)
	}
	if got := reg.Counter(MetricDistanceOps, "", Label{Key: "kind", Value: "op"}).Value(); got != 2 {
		t.Errorf("op-kind count = %d, want 2", got)
	}
	if got := reg.Counter(MetricCongestBits, "").Value(); got != 400 {
		t.Errorf("congest bits = %d, want 400", got)
	}
	if got := reg.Counter(MetricCongestRnds, "").Value(); got != 2 {
		t.Errorf("congest rounds = %d, want 2", got)
	}
	if got := reg.Counter(MetricFleetDeliver, "", Label{Key: "route", Value: "intra"}).Value(); got != 1 {
		t.Errorf("intra = %d, want 1", got)
	}
	if got := reg.Counter(MetricFleetDeliver, "", Label{Key: "route", Value: "inter"}).Value(); got != 2 {
		t.Errorf("inter = %d, want 2", got)
	}

	// Queue depth is a high-water mark; silent steps accumulate.
	m.Stats.MaxQueueDepth = 3
	b.Fold(m)
	if got := reg.Gauge(MetricQueueDepth, "").Value(); got != 11 {
		t.Errorf("queue depth high water = %d, want 11", got)
	}
	if got := reg.Gauge(MetricSilentSteps, "").Value(); got != 24 {
		t.Errorf("silent steps = %d, want 24", got)
	}
}

// TestNilBridgeSafe: folding through a nil *Bridge, or folding a nil or
// empty manifest, is a no-op, not a panic.
func TestNilBridgeSafe(t *testing.T) {
	var b *Bridge
	b.Fold(telemetry.NewManifest("spaabench", "test"))
	NewBridge(NewRegistry()).Fold(nil)
	NewBridge(NewRegistry()).Fold(telemetry.NewManifest("spaabench", "test"))
}

// TestBridgeMatchesEngineStats runs the spiking SSSP under a recorder
// and folds its manifest; the scraped counters must equal the engine's
// own aggregate stats.
func TestBridgeMatchesEngineStats(t *testing.T) {
	g := graph.RandomGnm(128, 512, graph.Uniform(8), 7, true)
	rec := telemetry.NewRecorder()
	res, err := core.SSSP(g, 0, -1, rec)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewManifest("spaabench", "sssp")
	m.Stats = telemetry.StatsFrom(res.Stats)
	m.AddRecorder(rec)
	reg := NewRegistry()
	NewBridge(reg).Fold(m)

	if got := reg.Counter(MetricSpikes, "").Value(); got != res.Stats.Spikes {
		t.Errorf("folded spikes = %d, engine says %d", got, res.Stats.Spikes)
	}
	if got := reg.Counter(MetricDeliveries, "").Value(); got != res.Stats.Deliveries {
		t.Errorf("folded deliveries = %d, engine says %d", got, res.Stats.Deliveries)
	}
	if got := reg.Counter(MetricSteps, "").Value(); got != res.Stats.Steps {
		t.Errorf("folded steps = %d, engine says %d", got, res.Stats.Steps)
	}
	h := reg.Histogram(MetricStepSpikes, "")
	if h.Count() != res.Stats.Steps || h.Sum() != res.Stats.Spikes {
		t.Errorf("step-spikes histogram count %d sum %d, engine says %d steps %d spikes",
			h.Count(), h.Sum(), res.Stats.Steps, res.Stats.Spikes)
	}
	if got, want := reg.Counter(MetricActive, "").Value(), rec.StepSeries("active").Sum(); got != want || got == 0 {
		t.Errorf("folded active neurons = %d, recorder says %d", got, want)
	}
}

// TestBridgeFoldRejectsNegative: Fold refuses a manifest carrying a
// negative value it would add — a stats total, a counter with a live
// family, an active_per_step sample — and leaves the registry as it
// was; a negative counter with no live family is not its business.
func TestBridgeFoldRejectsNegative(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*telemetry.Manifest)
		want string // error substring; "" means accepted
	}{
		{"silent_steps_skipped", func(m *telemetry.Manifest) { m.Stats.SilentStepsSkipped = -1 }, "SilentStepsSkipped:-1"},
		{"congest_bits", func(m *telemetry.Manifest) { m.Counters["congest_bits"] = -8 }, "counter congest_bits"},
		{"active_per_step", func(m *telemetry.Manifest) {
			m.Series = []telemetry.Series{{Name: "active_per_step", Times: []int64{1, 2}, Values: []int64{3, -1}}}
		}, "active_per_step"},
		{"unfolded counter", func(m *telemetry.Manifest) { m.Counters["neurons"] = -7 }, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := NewRegistry()
			m := telemetry.NewManifest("spaabench", "test")
			m.Stats = &telemetry.RunStats{Spikes: 4, Deliveries: 9, Steps: 2}
			m.Counters = map[string]int64{"congest_messages": 5}
			c.edit(m)
			err := NewBridge(reg).Fold(m)
			if c.want == "" {
				if err != nil {
					t.Fatalf("Fold refused a foldable manifest: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Fold error = %v, want one naming %q", err, c.want)
			}
			if got := reg.Counter(MetricSpikes, "").Value(); got != 0 {
				t.Errorf("spikes folded to %d before the refusal", got)
			}
			if got := reg.Counter(MetricCongestMsgs, "").Value(); got != 0 {
				t.Errorf("congest messages folded to %d before the refusal", got)
			}
		})
	}
}
