package core

import (
	"testing"

	"repro/internal/graph"
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

// TestBuildSSSPSingleShot: the relays latch their first spike, so a
// second Run on the same compiled network must panic rather than return
// silently wrong distances.
func TestBuildSSSPSingleShot(t *testing.T) {
	sn := BuildSSSP(diamond())
	if _, err := sn.Run(0, -1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	sn.Run(0, -1)
}

// TestBuildSSSPRejectsZeroLengths: the delay-validity check lives at
// build time.
func TestBuildSSSPRejectsZeroLengths(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("BuildSSSP accepted a zero-length edge")
		}
	}()
	BuildSSSP(g)
}

// TestRelayBuildAllocs: the relay builder connects in source order, so
// its synapses land directly in the engine's CSR layout. Building and
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
