package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

func TestRecordSSSPMatchesCore(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(8), 1, true)
	rec, err := RecordSSSP(g, 0, -1, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.SSSP(g, 0, -1)
	for v := range rec.Dist {
		if rec.Dist[v] != want.Dist[v] {
			t.Fatalf("recorded dist[%d]=%d, core says %d", v, rec.Dist[v], want.Dist[v])
		}
		if rec.Pred[v] != want.Pred[v] {
			t.Fatalf("recorded pred[%d]=%d, core says %d", v, rec.Pred[v], want.Pred[v])
		}
	}
	if rec.Log.Header.Dropped != 0 {
		t.Fatalf("sized-to-fit recorder dropped %d events", rec.Log.Header.Dropped)
	}
	// Fire-once relays: one event per reached vertex.
	reached := 0
	for _, d := range rec.Dist {
		if d < graph.Inf {
			reached++
		}
	}
	if rec.Log.Header.Events != reached {
		t.Fatalf("log has %d events, %d vertices reached", rec.Log.Header.Events, reached)
	}
}

// TestRecordSSSPCausalDepthEqualsHops is the ISSUE acceptance invariant:
// the primary causal chain of a vertex's first spike (following the
// FirstCause latch upward) is exactly its shortest path, so the chain's
// link count equals the path's hop count — and the whole log replays
// with zero divergence.
// TestWideHorizon: edge lengths near 2^60 overflow n·max(U,1)+1, the
// horizon RecordSSSP and the raster used to compute themselves. The run
// then stopped at a negative horizon and recorded no spike past the
// source, so `spaabench why -n 16 -m 40 -u 1152921504606846976 -seed 1
// -dst 5` failed with "neuron 5 never fired". With core's saturating
// horizon RecordSSSP gives core.SSSP's distances, and the raster refuses
// an L too wide to print instead of allocating a row of L columns.
func TestWideHorizon(t *testing.T) {
	g := graph.RandomGnm(16, 40, graph.Uniform(1<<60), 1, true)
	rec, err := RecordSSSP(g, 0, 5, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SSSP(g, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dist[5] != want.Dist[5] || rec.Dist[5] >= graph.Inf {
		t.Fatalf("recorded dist[5]=%d, core says %d", rec.Dist[5], want.Dist[5])
	}
	all, err := RecordSSSP(g, 0, -1, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	for v := range all.Dist {
		if all.Dist[v] != want.Dist[v] || all.Pred[v] != want.Pred[v] {
			t.Fatalf("recorded dist[%d]=%d pred %d, core says %d pred %d",
				v, all.Dist[v], all.Pred[v], want.Dist[v], want.Pred[v])
		}
	}
	if _, err := SSSPRaster(g, 0); err == nil || !strings.Contains(err.Error(), "too wide to print") {
		t.Fatalf("SSSPRaster on L=%d: %v, want a too-wide error", want.SpikeTime, err)
	}
	if _, _, err := SSSPTimeline(g, 0); err == nil || !strings.Contains(err.Error(), "too wide to print") {
		t.Fatalf("SSSPTimeline on L=%d: %v, want a too-wide error", want.SpikeTime, err)
	}
}

func TestRecordSSSPCausalDepthEqualsHops(t *testing.T) {
	g := graph.RandomGnm(96, 384, graph.Uniform(9), 5, true)
	rec, err := RecordSSSP(g, 0, -1, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []int{5, 17, 63, 95} {
		path := rec.Path(dst)
		if path == nil {
			continue
		}
		root, err := rec.Log.CausalTree(int32(dst), -1, telemetry.WalkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chain := root.PrimaryChain()
		if len(chain) != len(path) {
			t.Fatalf("dst %d: primary chain length %d, shortest path has %d vertices", dst, len(chain), len(path))
		}
		// The chain walks the path in reverse, ending at the induced source.
		for i, node := range chain {
			if got, want := int(node.Event.Neuron), path[len(path)-1-i]; got != want {
				t.Fatalf("dst %d: chain[%d] = n%d, path says v%d", dst, i, got, want)
			}
		}
		if !chain[len(chain)-1].Event.Forced {
			t.Fatalf("dst %d: chain does not end at the induced source", dst)
		}
	}

	report, err := rec.Log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Divergence != nil {
		t.Fatalf("replay diverged: %v", report.Divergence)
	}
}

func TestRecordSSSPTerminalHalts(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(6), 2, true)
	rec, err := RecordSSSP(g, 0, 13, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	full, err := RecordSSSP(g, 0, -1, "test", "why")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Log.Header.Events > full.Log.Header.Events {
		t.Fatalf("halted run recorded %d events, full run %d", rec.Log.Header.Events, full.Log.Header.Events)
	}
	// The terminal network is embedded in the netlist, so the halted run
	// replays bit-identically too.
	report, err := rec.Log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Divergence != nil {
		t.Fatalf("halted replay diverged: %v", report.Divergence)
	}
}

func TestRecordSSSPRejectsBadEndpoints(t *testing.T) {
	g := graph.RandomGnm(8, 16, graph.Uniform(3), 1, true)
	if _, err := RecordSSSP(g, -1, -1, "t", "c"); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := RecordSSSP(g, 0, 8, "t", "c"); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}
