package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/classic"
	"repro/internal/faults"
	"repro/internal/service"
)

// A corrupted reference must turn every op that uses it into a failure and
// mark the run incorrect; the ops on intact references must still pass.
func TestCorruptedReferenceIsReportedAsFailures(t *testing.T) {
	b := newSolve(7, 2000, 8000, 8, 2)
	ref := classic.Dijkstra(b.graph(), b.srcs[0]).Dist
	ref[len(ref)/2]++
	b.want[0] = digestOf(ref)

	res, err := run("solve_small", b, 7, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("run with a corrupted reference reported correct")
	}
	// Ops alternate between the two sources, so the corrupted one is used
	// by every even op.
	if want := (res.Attempted + 1) / 2; res.Failed != want {
		t.Fatalf("failed = %d of %d attempted, want %d", res.Failed, res.Attempted, want)
	}
}

func TestServeAnswerChecks(t *testing.T) {
	good := answer{Status: 200, Mode: service.ModeExact, code: http.StatusOK}
	cases := []struct {
		name      string
		edit      func(a *answer)
		exactOnly bool
		ok        bool
	}{
		{"exact answer", func(*answer) {}, true, true},
		{"shed", func(a *answer) { a.code, a.Status = 429, 429 }, false, false},
		{"timed out", func(a *answer) { a.code, a.Status = 504, 504 }, false, false},
		{"classic where exact is required", func(a *answer) { a.Mode = service.ModeClassic }, true, false},
		{"classic where any rung may serve", func(a *answer) { a.Mode = service.ModeClassic }, false, true},
	}
	for _, c := range cases {
		a := good
		c.edit(&a)
		b := &serveBench{exactOnly: c.exactOnly}
		if got := b.accepts(a); got != c.ok {
			t.Errorf("%s: accepts = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestServeVerifyComparesDistances(t *testing.T) {
	want := digestOf([]int64{0, 3, 5})
	b := &serveBench{ref: func(int) digest { return want }}
	ss := []sample{
		{ok: true, got: digestOf([]int64{0, 3, 5})},
		{ok: true, got: digestOf([]int64{0, 3, 6})},
		{ok: true, got: digestOf([]int64{0, 3})},
		{ok: false, got: want}, // already failed on status: stays failed
	}
	b.verify(ss)
	for i, wantOK := range []bool{true, false, false, false} {
		if ss[i].ok != wantOK {
			t.Errorf("sample %d: ok = %v, want %v", i, ss[i].ok, wantOK)
		}
	}
}

// A small serve workload run end to end and traced, with concurrent
// callers: every answer passes and every metric BENCHMARK.json names is
// printed.
func TestServeRunsPrintEveryMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	qs := []service.Query{
		{Workload: "sssp", N: 256, M: 1024, U: 8, GraphSeed: 1},
		{Workload: "sssp", N: 256, M: 1024, U: 8, GraphSeed: 2, Src: 5},
	}
	for _, traced := range []bool{false, true} {
		b := &serveBench{cfg: serviceConfig(faults.Model{}, 1), warm: qs, exactOnly: true}
		for _, q := range qs {
			b.warmWant = append(b.warmWant, reference(q))
		}
		b.query = func(i int) service.Query { return qs[i%len(qs)] }
		b.ref = func(i int) digest { return b.warmWant[i%len(qs)] }
		res, err := run("serve_small", b, 1, 1, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("traced=%v: metric %s missing", traced, m.Name)
			}
		}
	}
}
