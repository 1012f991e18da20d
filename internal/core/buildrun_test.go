package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/snn"
)

// TestBuildSSSPMatchesSSSP: the split build/run seam must be
// observationally identical to the one-shot entry point.
func TestBuildSSSPMatchesSSSP(t *testing.T) {
	g := diamond()
	want := mustSSSP(g, 0, -1)

	sn := BuildSSSP(g)
	if sn.Neurons() != want.Neurons || sn.Synapses() != want.Synapses {
		t.Fatalf("compiled size %d/%d, want %d/%d",
			sn.Neurons(), sn.Synapses(), want.Neurons, want.Synapses)
	}
	got, err := sn.Run(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Pred[v] != want.Pred[v] {
			t.Fatalf("vertex %d: dist/pred %d/%d, want %d/%d",
				v, got.Dist[v], got.Pred[v], want.Dist[v], want.Pred[v])
		}
	}
	if got.SpikeTime != want.SpikeTime || got.Stats != want.Stats {
		t.Fatalf("spike time/stats diverged: %d %+v vs %d %+v",
			got.SpikeTime, got.Stats, want.SpikeTime, want.Stats)
	}
}

// stepCounter is a step probe that counts the steps it sees.
type stepCounter struct{ steps int }

func (c *stepCounter) OnStep(int64, int, int, int, int) { c.steps++ }

// TestSSSPNetworkReRun: one compiled network re-run under a sequence of
// sources, destinations, budgets and probes must return what a fresh
// BuildSSSP returns for each run: a reused network restores the built
// state and drops the previous run's terminal and probe.
func TestSSSPNetworkReRun(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(8), 3, true)
	sn := BuildSSSP(g)
	probe := &stepCounter{}
	for i, c := range []struct {
		src, dst int
		budget   int64
		probe    bool
	}{
		{0, -1, 0, false},
		{0, 17, 0, true}, // halts at dst; the next run must not
		{5, -1, 0, false},
		{5, 29, 10, false}, // cut by the budget: timed out
		{5, 29, 0, false},
		{63, -1, 0, false},
	} {
		var probes []snn.StepProbe
		if c.probe {
			probes = append(probes, probe)
		}
		before := probe.steps
		got, gotErr := sn.RunBudgeted(c.src, c.dst, nil, 0, c.budget, probes...)
		want, wantErr := BuildSSSP(g).RunBudgeted(c.src, c.dst, nil, 0, c.budget)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("run %d %+v: error %v, fresh build %v", i, c, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d %+v: reused network returned %+v, fresh build %+v", i, c, got, want)
		}
		if c.budget > 0 && !got.TimedOut {
			t.Fatalf("run %d %+v: budget did not cut the run", i, c)
		}
		if seen := probe.steps - before; c.probe != (seen > 0) || (c.probe && int64(seen) != got.Stats.Steps) {
			t.Fatalf("run %d %+v: probe saw %d steps of %d", i, c, seen, got.Stats.Steps)
		}
	}
}

// TestReRunAllocs: a warm re-run reuses the compiled network and its
// pooled event queue, so it allocates only the result (the SSSPResult and
// its Dist and Pred slices) at any size. A re-run that compiled again, or
// a queue that regrew, would add allocations.
func TestReRunAllocs(t *testing.T) {
	const resultAllocs = 3
	allocs := func(n, m int) float64 {
		sn := BuildSSSP(graph.RandomGnm(n, m, graph.Uniform(8), 1, true))
		if _, err := sn.Run(0, -1); err != nil { // warm-up: compaction, bucket pool
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sn.Run(0, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256, 1024), allocs(4096, 16384)
	if small != resultAllocs || large != resultAllocs {
		t.Fatalf("re-run allocs: n=256 %v, n=4096 %v; want %d (the result only)", small, large, resultAllocs)
	}
}

// TestFreshRunAllocs pins what a fresh build and first run allocate on a
// wide-delay graph, where thousands of pending times each own a bucket:
// new buckets take their first delivery capacity from shared slabs and
// the pending times need no heap, so the count stays far below one
// allocation per bucket.
func TestFreshRunAllocs(t *testing.T) {
	const limit = 200
	g := graph.RandomGnm(5000, 15000, graph.Uniform(65536), 1, true)
	g.MaxDeg() // build the graph's own index outside the measurement
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildSSSP(g).Run(0, -1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= limit {
		t.Fatalf("BuildSSSP+Run allocated %v times, want under %d", allocs, limit)
	}
}

// TestRelayBuildAllocs: the relay builder places its synapses into rows
// sized up front, so they land directly in the engine's CSR layout. Building and
// compacting the network then costs the same allocation count at any
// size; a staging slice growing with m, or a compaction copy, breaks that.
func TestRelayBuildAllocs(t *testing.T) {
	allocs := func(n, m int) float64 {
		g := graph.RandomGnm(n, m, graph.Uniform(8), 1, true)
		g.MaxDeg() // build the graph's own index outside the measurement
		return testing.AllocsPerRun(20, func() {
			BuildSSSP(g).rn.net.OutSynapses(0)
		})
	}
	small, large := allocs(256, 1024), allocs(4096, 16384)
	if small != large {
		t.Fatalf("BuildSSSP+compaction allocs: n=256 %v, n=4096 %v; want equal", small, large)
	}
}
