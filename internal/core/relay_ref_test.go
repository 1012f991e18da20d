package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/snn"
)

// refRelayNetwork is the source-order relay builder: for each relay, its
// self-loop, then its out-edges read row by row through g.Out and
// Graph.Edge, all by Connect. newRelayNetwork must lay out exactly this
// network.
func refRelayNetwork(g *graph.Graph) *relayNetwork {
	n := g.N()
	net := snn.NewNetwork(snn.Config{Rule: snn.FireGTE})
	net.Grow(n, n+g.M())
	net.SetLabeler(func(i int) string { return "v" + strconv.Itoa(i) })
	for v := 0; v < n; v++ {
		net.AddNeuron(snn.Integrator(1))
	}
	for v := 0; v < n; v++ {
		net.Connect(v, v, -float64(g.InDeg(v)+1), 1)
		for _, ei := range g.Out(v) {
			e := g.Edge(int(ei))
			net.Connect(v, e.To, 1, e.Len)
		}
	}
	return &relayNetwork{net: net, horizon: RelayHorizon(g.N(), g.MaxLen())}
}

// checkAgainstReference fails unless BuildSSSP(g) equals the reference
// build: every relay's fan-out, in order, and the run from src to dst, in
// Dist, Pred, Stats and every other result field.
func checkAgainstReference(t *testing.T, g *graph.Graph, src, dst int) {
	t.Helper()
	got, ref := BuildSSSP(g), &SSSPNetwork{rn: refRelayNetwork(g)}
	if got.rn.horizon != ref.rn.horizon {
		t.Fatalf("%v: horizon %d, reference %d", g, got.rn.horizon, ref.rn.horizon)
	}
	for v := 0; v < g.N(); v++ {
		if a, b := got.rn.net.OutSynapses(v), ref.rn.net.OutSynapses(v); !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: relay %d fan-out %v, reference %v", g, v, a, b)
		}
	}
	a, errA := got.Run(src, dst)
	b, errB := ref.Run(src, dst)
	if fmt.Sprint(errA) != fmt.Sprint(errB) || !reflect.DeepEqual(a, b) {
		t.Fatalf("%v src %d dst %d: run %+v (%v), reference %+v (%v)", g, src, dst, a, errA, b, errB)
	}
}

// TestRelayBuildMatchesReference: on random graphs, simple and with
// self-loops, parallel edges and far-map delays, the sized-row build lays
// out every relay's row exactly as the source-order reference does, so
// fan-out order and the FirstCause/Pred tie-breaks do not move.
func TestRelayBuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.RandomGnm(300, 1200, graph.Uniform(4), seed, true)
		checkAgainstReference(t, g, int(seed), -1)
		checkAgainstReference(t, g, 0, int(seed)*7)
	}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(r.Intn(40) + 1)
		for k := r.Intn(160); k > 0; k-- {
			l := int64(r.Intn(3) + 1) // few lengths: many tied arrivals
			if r.Intn(20) == 0 {
				l = 1<<17 + int64(r.Intn(9)) // past the ring: the far map
			}
			g.AddEdge(r.Intn(g.N()), r.Intn(g.N()), l)
		}
		checkAgainstReference(t, g, r.Intn(g.N()), r.Intn(g.N()+1)-1)
	}
}

// TestBuildSSSPRejectsZeroLengths: the build checks every edge length
// before placing the edge, so a zero length reports the core panic, not
// the engine's delay check.
func TestBuildSSSPRejectsZeroLengths(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BuildSSSP accepted a zero-length edge")
		}
		if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "core: SSSP requires edge lengths >= 1") {
			t.Fatalf("panic %q, want the core edge-length message", msg)
		}
	}()
	BuildSSSP(g)
}
