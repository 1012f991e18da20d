package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/snn"
)

// The FlightRecorder must satisfy the flight-probe interface and, so it
// can ride the optional probe arguments of the algorithm entry points,
// the step-probe interface too.
var (
	_ snn.FlightProbe = (*FlightRecorder)(nil)
	_ snn.StepProbe   = (*FlightRecorder)(nil)
)

func TestFlightRecorderRingBounds(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		rec.OnSpike(int64(i), int32(i), false, 0, 1, nil)
	}
	if got := rec.Len(); got != 4 {
		t.Fatalf("Len %d, want capacity 4", got)
	}
	if got := rec.Dropped(); got != 6 {
		t.Fatalf("Dropped %d, want 6", got)
	}
	ev := rec.Events()
	if len(ev) != 4 {
		t.Fatalf("Events returned %d", len(ev))
	}
	// Oldest-first tail of the stream: t = 6, 7, 8, 9.
	for i, e := range ev {
		if e.T != int64(6+i) || e.Neuron != int32(6+i) {
			t.Fatalf("event %d = %+v, want t=%d", i, e, 6+i)
		}
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	rec := NewFlightRecorder(0)
	if got := cap(rec.ring); got != DefaultFlightCapacity {
		t.Fatalf("default capacity %d, want %d", got, DefaultFlightCapacity)
	}
}

func TestFlightRecorderCopiesScratch(t *testing.T) {
	rec := NewFlightRecorder(8)
	scratch := []snn.Antecedent{{From: 1, Weight: 1, Delay: 3}}
	rec.OnSpike(5, 2, false, 0, 1, scratch)
	scratch[0] = snn.Antecedent{From: 99, Weight: -9, Delay: 1} // engine reuses scratch
	ev := rec.Events()
	if len(ev) != 1 || len(ev[0].Antecedents) != 1 {
		t.Fatalf("events %+v", ev)
	}
	if a := ev[0].Antecedents[0]; a.From != 1 || a.Weight != 1 || a.Delay != 3 {
		t.Fatalf("recorded antecedent aliases engine scratch: %+v", a)
	}
}

// TestRecorderConcurrentEngines runs four goroutines against one shared
// Recorder, each driving every probe kind in turn: a spiking SSSP engine,
// a DISTANCE-machine Dijkstra, a CONGEST SSSP and a fleet traffic
// analysis. With -race this doubles as the data-race check for the
// mutex-protected Recorder; every counter and series total must be the
// sum over the four runs.
func TestRecorderConcurrentEngines(t *testing.T) {
	type run struct {
		sssp    *core.SSSPResult
		dist    *distance.DijkstraResult
		congest *congest.Result[int64]
		fleet   *fleet.Traffic
	}
	rec := NewRecorder()
	runs := make([]run, 4)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := graph.RandomGnm(96+32*i, 384+128*i, graph.Uniform(8), int64(11+i), true)
			r := &runs[i]
			r.sssp = mustSSSP(g, rec)
			r.dist = distance.Dijkstra(g, 0, 4, distance.Spread, rec)
			_, r.congest = congest.SSSP(g, 0, g.N(), rec)
			r.fleet = fleet.AnalyzeSSSP(g, fleet.PartitionBFS(g, 24), r.sssp.Dist, rec)
		}(i)
	}
	wg.Wait()

	var want struct{ spikes, deliveries, steps, movement, touches, messages, bits, intra, inter int64 }
	wantChip := map[string]int64{}
	for _, r := range runs {
		want.spikes += r.sssp.Stats.Spikes
		want.deliveries += r.sssp.Stats.Deliveries
		want.steps += r.sssp.Stats.Steps
		want.movement += r.dist.Movement
		want.touches += r.dist.Touches
		want.messages += r.congest.MessagesSent
		want.bits += r.congest.TotalBits
		want.intra += r.fleet.IntraChip
		want.inter += r.fleet.InterChip
		for chip, share := range r.fleet.PerChip {
			wantChip[fmt.Sprintf("chip%d_sends_per_step", chip)] += share.Intra + share.Out
		}
	}
	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("shared recorder %s %d, want %d", what, got, want)
		}
	}
	check("spikes", rec.StepSeries("spikes").Sum(), want.spikes)
	check("deliveries", rec.StepSeries("deliveries").Sum(), want.deliveries)
	check("steps", int64(len(rec.StepSeries("spikes").Times)), want.steps)
	check("distance_movement", rec.Counter("distance_movement"), want.movement)
	check("distance touches", rec.Counter("distance_loads")+rec.Counter("distance_stores")+rec.Counter("distance_ops"), want.touches)
	check("congest_messages", rec.Counter("congest_messages"), want.messages)
	check("congest_bits", rec.Counter("congest_bits"), want.bits)
	check("fleet_intra", rec.Counter("fleet_intra"), want.intra)
	check("fleet_inter", rec.Counter("fleet_inter"), want.inter)

	gotChip := map[string]int64{}
	for _, s := range rec.Series() {
		switch {
		case s.Name == "bits_per_round":
			check("bits_per_round sum", s.Sum(), want.bits)
		case strings.HasPrefix(s.Name, "chip"):
			gotChip[s.Name] = s.Sum()
		}
	}
	for name, n := range wantChip {
		if n == 0 {
			delete(wantChip, name) // a chip that sent nothing has no series
		}
	}
	if !reflect.DeepEqual(gotChip, wantChip) {
		t.Errorf("chip series sums %v, want %v", gotChip, wantChip)
	}
}
