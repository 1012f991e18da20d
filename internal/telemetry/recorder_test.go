package telemetry

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/distance"
	"repro/internal/fleet"
	"repro/internal/graph"
)

// TestRecorderCounterKeys pins the key set Counters returns. Counter
// cannot show it, since it answers 0 for a missing key, but a key that
// appears or disappears changes manifest bytes and regress drift.
func TestRecorderCounterKeys(t *testing.T) {
	for _, c := range []struct {
		name  string
		drive func(*Recorder)
		want  map[string]int64
	}{
		{"empty", func(*Recorder) {}, map[string]int64{}},
		{"steps only", func(r *Recorder) { r.OnStep(1, 2, 3, 4, 5) }, map[string]int64{}},
		{"ad-hoc zero", func(r *Recorder) { r.Add("chips", 0) }, map[string]int64{"chips": 0}},
		{"one zero-cost load", func(r *Recorder) { r.OnDistanceOp(distance.KindLoad, 0) },
			map[string]int64{"distance_loads": 1, "distance_movement": 0}},
		{"stores and ops, no loads", func(r *Recorder) {
			r.OnDistanceOp(distance.KindStore, 3)
			r.OnDistanceOp(distance.KindOp, 4)
			r.OnDistanceOp(distance.KindOp, 0)
		}, map[string]int64{"distance_stores": 1, "distance_ops": 2, "distance_movement": 7}},
		{"one silent round", func(r *Recorder) { r.OnCongestRound(1, 0, 0) },
			map[string]int64{"congest_messages": 0, "congest_bits": 0}},
		{"two rounds", func(r *Recorder) {
			r.OnCongestRound(1, 2, 64)
			r.OnCongestRound(2, 1, 32)
		}, map[string]int64{"congest_messages": 3, "congest_bits": 96}},
		{"intra only", func(r *Recorder) { r.OnFleetDelivery(0, 1, 1) }, map[string]int64{"fleet_intra": 1}},
		{"inter only", func(r *Recorder) {
			r.OnFleetDelivery(0, 0, 1)
			r.OnFleetDelivery(3, 1, 0)
		}, map[string]int64{"fleet_inter": 2}},
		{"ad-hoc adds to a probe total", func(r *Recorder) {
			r.Add("fleet_intra", 5)
			r.OnFleetDelivery(2, 0, 0)
			r.Add("distance_movement", 1)
		}, map[string]int64{"fleet_intra": 6, "distance_movement": 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRecorder()
			c.drive(r)
			if got := r.Counters(); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("Counters() = %v, want %v", got, c.want)
			}
		})
	}
}

// seriesSink keeps the benchmarked Series call live.
var seriesSink []Series

// BenchmarkRecorderFleet prices the Recorder on the fleet command's
// default run (a 12x12 unit grid, BFS placement on 24-neuron chips): one
// probed fleet.AnalyzeSSSP into a fresh Recorder, then the series read
// back. B/delivery is all heap bytes of an iteration per delivery.
func BenchmarkRecorderFleet(b *testing.B) {
	g := graph.Grid(12, 12, graph.Unit, 1)
	dist := mustSSSP(g).Dist
	a := fleet.PartitionBFS(g, 24)
	var deliveries int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder()
		tr := fleet.AnalyzeSSSP(g, a, dist, rec)
		seriesSink = rec.Series()
		deliveries = tr.IntraChip + tr.InterChip
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(int64(b.N)*deliveries), "B/delivery")
}
