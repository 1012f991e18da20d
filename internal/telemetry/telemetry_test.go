package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/snn"
)

// The Recorder must satisfy every probe interface of the simulator stack.
var (
	_ snn.StepProbe  = (*Recorder)(nil)
	_ distance.Probe = (*Recorder)(nil)
	_ congest.Probe  = (*Recorder)(nil)
	_ fleet.Probe    = (*Recorder)(nil)
)

// TestSSSPSeriesSumsToStats is the headline invariant: the per-step spike
// and delivery series of the Section 3 SSSP run sum exactly to the
// aggregate snn.Stats counters.
func TestSSSPSeriesSumsToStats(t *testing.T) {
	g := graph.RandomGnm(128, 512, graph.Uniform(8), 1, true)
	rec := NewRecorder()
	r := mustSSSP(g, rec)

	if got := rec.TotalSpikes(); got != r.Stats.Spikes {
		t.Fatalf("spike series sums to %d, stats say %d", got, r.Stats.Spikes)
	}
	if got := rec.TotalDeliveries(); got != r.Stats.Deliveries {
		t.Fatalf("delivery series sums to %d, stats say %d", got, r.Stats.Deliveries)
	}
	if got := int64(rec.StepCount()); got != r.Stats.Steps {
		t.Fatalf("recorded %d steps, stats say %d", got, r.Stats.Steps)
	}
	// Fire-once network: total spikes == reached vertices.
	reached := int64(0)
	for _, d := range r.Dist {
		if d < graph.Inf {
			reached++
		}
	}
	if r.Stats.Spikes != reached {
		t.Fatalf("spikes %d != reached %d", r.Stats.Spikes, reached)
	}
	// The queue-depth series must stay within the recorded high-water mark.
	q := rec.StepSeries("queue_depth")
	if q == nil {
		t.Fatal("no queue_depth series")
	}
	for i, v := range q.Values {
		if v > r.Stats.MaxQueueDepth {
			t.Fatalf("queue depth %d at step %d exceeds MaxQueueDepth %d", v, i, r.Stats.MaxQueueDepth)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(8), 3, true)
	rec := NewRecorder()
	r := mustSSSP(g, rec)

	man := NewManifest("spaabench", "sssp")
	man.Graph = &GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: 3}
	man.Stats = StatsFrom(r.Stats)
	man.SetConfig("algo", "spiking")
	man.AddRecorder(rec)

	var buf bytes.Buffer
	if err := man.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats.Spikes != r.Stats.Spikes || back.Stats.Deliveries != r.Stats.Deliveries {
		t.Fatalf("round-tripped stats %+v != run stats %+v", back.Stats, r.Stats)
	}
	if back.Graph.N != g.N() || back.Graph.M != g.M() {
		t.Fatalf("round-tripped graph %+v", back.Graph)
	}
	var spikes *Series
	for i := range back.Series {
		if back.Series[i].Name == "spikes_per_step" {
			spikes = &back.Series[i]
		}
	}
	if spikes == nil {
		t.Fatal("manifest lost the spikes_per_step series")
	}
	if got := spikes.Sum(); got != r.Stats.Spikes {
		t.Fatalf("serialized series sums to %d, want %d", got, r.Stats.Spikes)
	}
}

func TestReadManifestRejectsWrongSchema(t *testing.T) {
	if _, err := ReadManifest(bytes.NewBufferString(`{"schema":"other/v9","tool":"x"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ReadManifest(bytes.NewBufferString(`{not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestManifestFinalizeDeterministic checks the -deterministic property:
// two identically-built manifests finalized at different wall times
// encode byte-identically, while the default mode stamps real clocks.
func TestManifestFinalizeDeterministic(t *testing.T) {
	build := func(start time.Time, wall time.Duration, det bool) []byte {
		m := NewManifest("spaabench", "sssp")
		m.SetConfig("seed", 7)
		m.Stats = &RunStats{Spikes: 10, Deliveries: 20, Steps: 5}
		m.Finalize(start, wall, ManifestOptions{Deterministic: det})
		var b bytes.Buffer
		if err := m.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	t0 := time.Unix(1700000000, 0)
	t1 := t0.Add(8 * time.Hour)

	da := build(t0, 12*time.Millisecond, true)
	db := build(t1, 90*time.Millisecond, true)
	if !bytes.Equal(da, db) {
		t.Errorf("deterministic manifests differ:\n%s\nvs\n%s", da, db)
	}
	if bytes.Contains(da, []byte("created_unix_ms")) || bytes.Contains(da, []byte("wall_ms")) {
		t.Errorf("deterministic manifest still carries wall-clock fields:\n%s", da)
	}

	wa := build(t0, 1500*time.Microsecond, false)
	if !bytes.Contains(wa, []byte(`"created_unix_ms": 1700000000000`)) {
		t.Errorf("default mode lost the creation stamp:\n%s", wa)
	}
	if !bytes.Contains(wa, []byte(`"wall_ms": 1.5`)) {
		t.Errorf("default mode lost the wall duration:\n%s", wa)
	}
}

func TestDistanceProbeMatchesMachineCounters(t *testing.T) {
	g := graph.RandomGnm(32, 128, graph.Uniform(5), 5, true)
	rec := NewRecorder()
	r := distance.Dijkstra(g, 0, 4, distance.Spread, rec)
	if got := rec.Counter("distance_movement"); got != r.Movement {
		t.Fatalf("probed movement %d != machine cost %d", got, r.Movement)
	}
	touches := rec.Counter("distance_loads") + rec.Counter("distance_stores") + rec.Counter("distance_ops")
	if touches != r.Touches {
		t.Fatalf("probed touches %d != machine touches %d", touches, r.Touches)
	}
}

func TestCongestProbeMatchesResult(t *testing.T) {
	g := graph.RandomGnm(48, 192, graph.Uniform(6), 9, true)
	rec := NewRecorder()
	_, res := congest.SSSP(g, 0, g.N(), rec)
	if got := rec.Counter("congest_messages"); got != res.MessagesSent {
		t.Fatalf("probed messages %d != result %d", got, res.MessagesSent)
	}
	if got := rec.Counter("congest_bits"); got != res.TotalBits {
		t.Fatalf("probed bits %d != result %d", got, res.TotalBits)
	}
	found := false
	for _, s := range rec.Series() {
		if s.Name == "bits_per_round" {
			found = true
			if got := s.Sum(); got != res.TotalBits {
				t.Fatalf("bits_per_round sums to %d, want %d", got, res.TotalBits)
			}
		}
	}
	if !found {
		t.Fatal("no bits_per_round series")
	}
}

func TestFleetProbeMatchesTraffic(t *testing.T) {
	g := graph.Grid(8, 8, graph.Unit, 0)
	dist := mustSSSP(g).Dist
	a := fleet.PartitionBFS(g, 16)
	rec := NewRecorder()
	tr := fleet.AnalyzeSSSP(g, a, dist, rec)
	if got := rec.Counter("fleet_intra"); got != tr.IntraChip {
		t.Fatalf("probed intra %d != traffic %d", got, tr.IntraChip)
	}
	if got := rec.Counter("fleet_inter"); got != tr.InterChip {
		t.Fatalf("probed inter %d != traffic %d", got, tr.InterChip)
	}
	// One sends-per-step series per chip that delivered anything.
	var chipSeriesTotal int64
	for _, s := range rec.Series() {
		if len(s.Name) > 4 && s.Name[:4] == "chip" {
			chipSeriesTotal += s.Sum()
		}
	}
	if want := tr.IntraChip + tr.InterChip; chipSeriesTotal != want {
		t.Fatalf("chip series sum %d != total traffic %d", chipSeriesTotal, want)
	}
}

func TestTracerEncodesValidTraceEventJSON(t *testing.T) {
	g := graph.RandomGnm(32, 128, graph.Uniform(4), 2, true)
	rec := NewRecorder()
	r := mustSSSP(g, rec)

	tr := NewTracer()
	tr.Span("phases", "simulate", 0, r.SpikeTime)
	tr.Instant("phases", "first spike", 0)
	tr.AddRecorder(rec)

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]bool{}
	var spikeCounterSum int64
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
		switch ph {
		case "M", "X", "C", "i":
		default:
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
		if ph == "C" && ev["name"] == "spikes_per_step" {
			args := ev["args"].(map[string]any)
			spikeCounterSum += int64(args["value"].(float64))
		}
	}
	for _, want := range []string{"M", "X", "C", "i"} {
		if !phases[want] {
			t.Fatalf("trace is missing %q events", want)
		}
	}
	if spikeCounterSum != r.Stats.Spikes {
		t.Fatalf("trace spike counters sum to %d, want %d", spikeCounterSum, r.Stats.Spikes)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty input gave %q", got)
	}
	if got := Sparkline([]int64{0, 0}); got != "··" {
		t.Fatalf("zeros gave %q", got)
	}
	s := Sparkline([]int64{0, 1, 4, 8})
	r := []rune(s)
	if len(r) != 4 {
		t.Fatalf("got %d runes", len(r))
	}
	if r[0] != '·' {
		t.Fatalf("zero column %q", r[0])
	}
	if r[3] != '█' {
		t.Fatalf("max column %q", r[3])
	}
	// Monotone input gives monotone glyph heights.
	idx := func(c rune) int {
		for i, x := range sparkRunes {
			if x == c {
				return i
			}
		}
		return -1
	}
	for i := 1; i < len(r); i++ {
		if idx(r[i]) < idx(r[i-1]) {
			t.Fatalf("non-monotone sparkline %q", s)
		}
	}
	// Pooling keeps the maximum visible.
	wide := make([]int64, 1000)
	wide[777] = 42
	pooled := SparklineWidth(wide, 60)
	if pr := []rune(pooled); len(pr) != 60 {
		t.Fatalf("pooled width %d", len(pr))
	}
	found := false
	for _, c := range pooled {
		if c == '█' {
			found = true
		}
	}
	if !found {
		t.Fatalf("pooling lost the spike: %q", pooled)
	}
}

func TestTimelineDensify(t *testing.T) {
	s := &Series{Times: []int64{2, 5}, Values: []int64{3, 7}}
	dense := Timeline(s, 0, 6)
	want := []int64{0, 0, 3, 0, 0, 7, 0}
	if len(dense) != len(want) {
		t.Fatalf("len %d", len(dense))
	}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense[%d] = %d, want %d", i, dense[i], want[i])
		}
	}
	if Timeline(s, 3, 2) != nil {
		t.Fatal("inverted range should be nil")
	}
}

func TestProfilesWrite(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(dir + "/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	mustSSSP(graph.RandomGnm(64, 256, graph.Uniform(4), 4, true))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(dir + "/mem.pprof"); err != nil {
		t.Fatal(err)
	}
}

// mustSSSP runs the fault-free spiking SSSP (all destinations), which
// cannot time out.
func mustSSSP(g *graph.Graph, probe ...snn.StepProbe) *core.SSSPResult {
	r, err := core.SSSP(g, 0, -1, probe...)
	if err != nil {
		panic(err)
	}
	return r
}
