package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeDIMACS(t *testing.T) {
	g := RandomGraph(15, 60, Uniform(7), 4)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, "facade"); err != nil {
		t.Fatal(err)
	}
	h, err := ReadDIMACS(&buf)
	if err != nil || h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: %v", err)
	}
}

func TestFacadeDOTAndNetlist(t *testing.T) {
	g := PathGraph(4, Unit, 0)
	var dot bytes.Buffer
	if err := WriteDOT(&dot, g, "p", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Fatal("DOT output missing header")
	}
	net := NewNetwork(NetworkConfig{})
	a := net.AddNeuron(GateNeuron(1))
	b := net.AddNeuron(GateNeuron(1))
	net.Connect(a, b, 1, 2)
	net.InduceSpike(a, 0)
	var nl bytes.Buffer
	if err := WriteNetlist(&nl, net); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadNetlist(&nl)
	if err != nil {
		t.Fatal(err)
	}
	reread.Run(5)
	if reread.FirstSpike(b) != 2 {
		t.Fatalf("netlist behaviour lost: %d", reread.FirstSpike(b))
	}
}

func TestFacadeCrossover(t *testing.T) {
	p := CostParams{N: 256, M: 1024, K: 1, L: 10, U: 4, Alpha: 4, C: 1}
	if k := CrossoverK(p, 1<<20); k == 0 {
		t.Fatal("no k crossover")
	}
	sparse := CostParams{N: 1024, M: 2048, K: 4, L: 1, U: 4, Alpha: 4, C: 1}
	if l := CrossoverL(sparse, 1<<30); l == 0 {
		t.Fatal("no L window")
	}
	if m := CrossoverMovementM(CostParams{N: 64, M: 2, K: 4, L: 16, U: 4, Alpha: 4, C: 1}, 10, 1<<40); m == 0 {
		t.Fatal("no movement crossover")
	}
}

func TestFacadeMatVecCircuit(t *testing.T) {
	b := NewCircuitBuilder(true)
	m := NewMatVecCircuit(b, [][]int{{0, 1}, {1}}, 4)
	y := m.Compute(b, []uint64{6, 7}, 0)
	if y[0] != 13 || y[1] != 7 {
		t.Fatalf("y = %v", y)
	}
}

func TestFacadePageRank(t *testing.T) {
	g := ScaleFreeGraph(20, 2, Unit, 3)
	pr, rounds := PageRank(g, 0.85, 1e-9, 300)
	if rounds == 0 {
		t.Fatal("no rounds")
	}
	var sum float64
	for _, p := range pr {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("sum %v", sum)
	}
}

func TestFacadeFaults(t *testing.T) {
	g := RandomGraph(20, 80, Uniform(5), 6)
	r, survived := SpikingSSSPWithFaults(g, 0, 0.3, 9)
	want := Dijkstra(survived, 0)
	for v := 0; v < g.N(); v++ {
		if r.Dist[v] != want.Dist[v] {
			t.Fatalf("faulty dist[%d] mismatch", v)
		}
	}
}

func TestFacadeRaster(t *testing.T) {
	g := PathGraph(4, Unit, 0)
	out, err := SSSPRasterString(g, 0)
	if err != nil || !strings.Contains(out, "wavefront") || !strings.Contains(out, "|") {
		t.Fatalf("raster:\n%s", out)
	}
}

func TestFacadeOrderedEmbedding(t *testing.T) {
	n := 16
	g := PathGraph(n, Unit, 2)
	pos := CuthillMcKee(g)
	if GraphBandwidth(g, pos) != 1 {
		t.Fatalf("path RCM bandwidth %d", GraphBandwidth(g, pos))
	}
	cb := NewCrossbar(n)
	scale, err := cb.EmbedOrdered(g, pos)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 4 {
		t.Fatalf("ordered scale %d", scale)
	}
	got := cb.SSSP(0)
	want := Dijkstra(g, 0)
	for v := 0; v < n; v++ {
		if got.Dist[v] != want.Dist[v] {
			t.Fatalf("dist[%d] mismatch", v)
		}
	}
}

func TestFacadeFleet(t *testing.T) {
	g := GridGraph(8, 8, Unit, 0)
	bfs := PartitionBFS(g, 16)
	rr := PartitionRoundRobin(g, 16)
	dist := SpikingSSSP(g, 0, -1).Dist
	tb := AnalyzeSSSPTraffic(g, bfs, dist)
	tr := AnalyzeSSSPTraffic(g, rr, dist)
	if tb.InterChip >= tr.InterChip {
		t.Fatalf("BFS placement no better: %d vs %d", tb.InterChip, tr.InterChip)
	}
	var loihi Platform
	for _, p := range Table3() {
		if p.Name == "Loihi" {
			loihi = p
		}
	}
	if tb.EnergyJoules(loihi.PicoJoulePerSpike, 100) <= 0 {
		t.Fatal("zero energy")
	}
}

func TestFacadeRippleAdder(t *testing.T) {
	b := NewCircuitBuilder(true)
	a := NewAdderRipple(b, 8)
	if got := a.Compute(b, 100, 55, 0); got != 155 {
		t.Fatalf("ripple facade = %d", got)
	}
}
