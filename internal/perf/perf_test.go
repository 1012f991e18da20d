package perf

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTrackerPhasesAndTotals(t *testing.T) {
	tr := NewTracker()
	tr.Phase("build")
	tr.Phase("run")
	time.Sleep(2 * time.Millisecond)
	tr.Phase("report")
	tr.SetTotals(100, 40, 2500, 17)
	r := tr.Report(false)

	if r.Schema != Schema {
		t.Fatalf("schema = %q, want %q", r.Schema, Schema)
	}
	if len(r.Phases) != 3 || r.Phases[0].Name != "build" || r.Phases[1].Name != "run" || r.Phases[2].Name != "report" {
		t.Fatalf("phases = %+v, want build/run/report", r.Phases)
	}
	if r.Phases[1].WallMS <= 0 {
		t.Errorf("run phase wall = %v, want > 0 (slept 2ms)", r.Phases[1].WallMS)
	}
	if r.WallMS <= 0 || r.StepsPerSec <= 0 || r.DeliveriesPerSec <= 0 {
		t.Errorf("wall-derived fields not populated: wall=%v steps/s=%v deliv/s=%v",
			r.WallMS, r.StepsPerSec, r.DeliveriesPerSec)
	}
	if r.DeliveriesPerStepMilli != 25000 {
		t.Errorf("deliveries_per_step_milli = %d, want 25000", r.DeliveriesPerStepMilli)
	}
	if r.Steps != 100 || r.Deliveries != 2500 || r.MaxQueueDepth != 17 {
		t.Errorf("totals not carried: %+v", r)
	}
}

func TestTrackerMemDeltas(t *testing.T) {
	tr := NewTracker()
	tr.Phase("run")
	// Allocate something attributable.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	r := tr.Report(false)
	if r.AllocBytes <= 0 || r.AllocObjects <= 0 {
		t.Errorf("alloc deltas not captured: objects=%d bytes=%d", r.AllocObjects, r.AllocBytes)
	}
	if r.HeapBytes <= 0 {
		t.Errorf("heap snapshot missing: %d", r.HeapBytes)
	}
}

// TestDeterministicReportByteStable encodes two deterministic reports of
// the same logical run and demands byte identity — the property the
// committed BENCH_perf_*.json baselines rely on.
func TestDeterministicReportByteStable(t *testing.T) {
	build := func() []byte {
		tr := NewTracker()
		tr.Phase("build")
		tr.Phase("run")
		time.Sleep(time.Millisecond) // real elapsed time must not leak through
		tr.Phase("report")
		tr.SetTotals(10, 4, 80, 3)
		b, err := json.Marshal(tr.Report(true))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Errorf("deterministic reports differ:\n%s\n%s", a, b)
	}
	var r Report
	if err := json.Unmarshal(a, &r); err != nil {
		t.Fatal(err)
	}
	if r.WallMS != 0 || r.StepsPerSec != 0 || r.AllocBytes != 0 || r.GCPauseNS != 0 {
		t.Errorf("deterministic report leaks wall/runtime fields: %+v", r)
	}
	if r.Steps != 10 || r.DeliveriesPerStepMilli != 8000 {
		t.Errorf("deterministic report dropped counter fields: %+v", r)
	}
	if len(r.Phases) != 3 {
		t.Errorf("deterministic report dropped phase names: %+v", r.Phases)
	}
}

func TestZeroWallClockNil(t *testing.T) {
	var r *Report
	r.ZeroWallClock() // must not panic
}
