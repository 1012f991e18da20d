package faults_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The PR 3 provenance log records a faulted run against the pristine
// netlist, so Replay() re-executes without the injector: any observable
// perturbation must surface as a first-divergence report. This is the
// forensic closure of the fault layer — a faulted run cannot masquerade
// as a clean one.
func TestFaultedRunDivergesUnderReplay(t *testing.T) {
	g := divergenceGraph()
	inj := faults.New(faults.Model{DropProb: 0.2, Seed: 6})
	rec, err := harness.RecordSSSPInjected(g, 0, -1, "test", "faults", inj)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Counters.Dropped == 0 {
		t.Fatal("20% drop landed nothing; the test exercises no fault")
	}
	report, err := rec.Log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Divergence == nil {
		t.Fatal("faulted recording replayed bit-identical to the pristine network")
	}
}

func TestCleanRecordingStillReplaysBitIdentical(t *testing.T) {
	// RecordSSSPInjected with a nil injector is exactly RecordSSSP: the
	// refactor must not disturb the PR 3 guarantee.
	g := divergenceGraph()
	rec, err := harness.RecordSSSPInjected(g, 0, -1, "test", "faults", nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := rec.Log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Divergence != nil {
		t.Fatalf("clean recording diverged: %v", report.Divergence)
	}
}

func TestDifferentSeedsProduceDifferentEventStreams(t *testing.T) {
	g := divergenceGraph()
	record := func(seed int64) *harness.RecordedSSSP {
		rec, err := harness.RecordSSSPInjected(g, 0, -1, "test", "faults",
			faults.New(faults.Model{DropProb: 0.1, JitterProb: 0.2, JitterMax: 2, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	eventEqual := func(x, y telemetry.SpikeEvent) bool {
		return x.T == y.T && x.Neuron == y.Neuron && x.Forced == y.Forced &&
			x.VBefore == y.VBefore && x.VAfter == y.VAfter //lint:floateq bit-identity is the property under test
	}
	a, b, c := record(1), record(1), record(2)
	if len(a.Log.Events) != len(b.Log.Events) {
		t.Fatalf("same seed recorded %d vs %d events", len(a.Log.Events), len(b.Log.Events))
	}
	for i := range a.Log.Events {
		if !eventEqual(a.Log.Events[i], b.Log.Events[i]) {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	same := len(a.Log.Events) == len(c.Log.Events)
	if same {
		for i := range a.Log.Events {
			if !eventEqual(a.Log.Events[i], c.Log.Events[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical faulted event streams")
	}
}

// FuzzInjectorDeterminism drives the full injector surface with fuzzed
// (seed, rates) and asserts two runs of the same model are bit-identical
// in distances, stats, and fault counters.
func FuzzInjectorDeterminism(f *testing.F) {
	f.Add(int64(1), 0.01, 0.1, 0.02)
	f.Add(int64(99), 0.5, 0.0, 0.0)
	f.Add(int64(-7), 0.0, 0.9, 0.25)
	g := graph.RandomGnm(32, 128, graph.Uniform(6), 2, true)
	f.Fuzz(func(t *testing.T, seed int64, drop, jitter, upset float64) {
		clamp := func(p float64) float64 {
			if p != p || p < 0 { // NaN or negative
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		model := faults.Model{
			DropProb:   clamp(drop),
			JitterProb: clamp(jitter),
			JitterMax:  2,
			UpsetProb:  clamp(upset),
			UpsetMag:   0.5,
			Seed:       seed,
		}
		a := faults.Run(core.BuildSSSP(g), 0, -1, model, 0)
		b := faults.Run(core.BuildSSSP(g), 0, -1, model, 0)
		if !int64SlicesEqual(a.Res.Dist, b.Res.Dist) {
			t.Fatalf("distances diverged for model %s", model)
		}
		if a.Counters != b.Counters {
			t.Fatalf("fault counters diverged for model %s: %+v vs %+v", model, a.Counters, b.Counters)
		}
		if a.Res.Stats != b.Res.Stats {
			t.Fatalf("stats diverged for model %s", model)
		}
		if a.Res.TimedOut != b.Res.TimedOut {
			t.Fatalf("timeout flag diverged for model %s", model)
		}
	})
}

// divergenceGraph mirrors the in-package smallGraph helper; this file
// lives in faults_test so it can import harness (which now imports
// faults) without an in-package test cycle.
func divergenceGraph() *graph.Graph {
	return graph.RandomGnm(64, 256, graph.Uniform(8), 3, true)
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
