package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5) = n=%d m=%d, want 5,0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewZeroVertices(t *testing.T) {
	g := New(0)
	if g.N() != 0 {
		t.Fatalf("N = %d, want 0", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	i := g.AddEdge(0, 1, 7)
	j := g.AddEdge(1, 2, 3)
	if i != 0 || j != 1 {
		t.Fatalf("edge indices %d,%d want 0,1", i, j)
	}
	if e := g.Edge(0); e.From != 0 || e.To != 1 || e.Len != 7 {
		t.Fatalf("Edge(0) = %+v", e)
	}
	if g.OutDeg(0) != 1 || g.InDeg(1) != 1 || g.InDeg(2) != 1 {
		t.Fatalf("degree bookkeeping wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(1, 1, 4)
	if g.OutDeg(1) != 1 || g.InDeg(1) != 1 {
		t.Fatalf("self-loop degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeParallel(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	if g.M() != 2 || g.OutDeg(0) != 2 {
		t.Fatalf("parallel edges not kept: m=%d deg=%d", g.M(), g.OutDeg(0))
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	for _, c := range [][2]int{{-1, 0}, {0, 2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", c[0], c[1])
				}
			}()
			g.AddEdge(c[0], c[1], 1)
		}()
	}
}

func TestAddEdgeNegativeLenPanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative length did not panic")
		}
	}()
	g.AddEdge(0, 1, -1)
}

func TestMaxMinLen(t *testing.T) {
	g := New(3)
	if g.MaxLen() != 0 || g.MinLen() != 0 {
		t.Fatalf("edgeless extremes not 0")
	}
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 0, 9)
	if g.MaxLen() != 9 || g.MinLen() != 2 {
		t.Fatalf("MaxLen=%d MinLen=%d, want 9,2", g.MaxLen(), g.MinLen())
	}
}

func TestMaxDeg(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 3, 1)
	if g.MaxDeg() != 3 {
		t.Fatalf("MaxDeg = %d, want 3", g.MaxDeg())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	h := g.Clone()
	h.AddEdge(1, 0, 2)
	h.SetLen(0, 42)
	if g.M() != 1 || g.Edge(0).Len != 1 {
		t.Fatalf("clone mutation leaked into original: %v", g.Edge(0))
	}
	if h.M() != 2 || h.Edge(0).Len != 42 {
		t.Fatalf("clone not mutated: %v", h.Edge(0))
	}
}

func TestScale(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3)
	h := g.Scale(4)
	if h.Edge(0).Len != 12 {
		t.Fatalf("scaled length %d, want 12", h.Edge(0).Len)
	}
	if g.Edge(0).Len != 3 {
		t.Fatalf("Scale mutated original")
	}
}

func TestScaleOverflowPanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, Inf/2)
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing scale did not panic")
		}
	}()
	g.Scale(4)
}

func TestMapAndReverse(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	h := g.Map(func(w int64) int64 { return w + 10 })
	if h.Edge(0).Len != 12 || h.Edge(1).Len != 13 {
		t.Fatalf("Map lengths wrong: %v %v", h.Edge(0), h.Edge(1))
	}
	r := g.Reverse()
	if e := r.Edge(0); e.From != 1 || e.To != 0 || e.Len != 2 {
		t.Fatalf("Reverse edge 0 = %+v", e)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGnmShape(t *testing.T) {
	g := RandomGnm(50, 300, Uniform(10), 1, true)
	if g.N() != 50 || g.M() < 300 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MinLen() < 1 || g.MaxLen() > 10 {
		t.Fatalf("lengths out of [1,10]: [%d,%d]", g.MinLen(), g.MaxLen())
	}
	for _, e := range g.Edges() {
		if e.From == e.To {
			t.Fatalf("RandomGnm produced self-loop %+v", e)
		}
	}
}

func TestRandomGnmConnected(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := RandomGnm(40, 40, Unit, seed, true)
		seen := g.Reachable(0)
		for v, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: vertex %d unreachable from 0", seed, v)
			}
		}
	}
}

func TestRandomGnmDeterministic(t *testing.T) {
	a := RandomGnm(30, 90, Uniform(5), 7, true)
	b := RandomGnm(30, 90, Uniform(5), 7, true)
	if a.M() != b.M() {
		t.Fatalf("same-seed graphs differ in m")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same-seed graphs differ at edge %d", i)
		}
	}
}

func TestRandomGnmNoConnect(t *testing.T) {
	g := RandomGnm(10, 5, Unit, 3, false)
	if g.M() != 5 {
		t.Fatalf("m=%d want exactly 5 without arborescence", g.M())
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6, Unit, 0)
	if g.M() != 30 {
		t.Fatalf("K_6 has %d edges, want 30", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.OutDeg(v) != 5 || g.InDeg(v) != 5 {
			t.Fatalf("vertex %d degrees %d/%d, want 5/5", v, g.OutDeg(v), g.InDeg(v))
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4, Unit, 0)
	if g.N() != 12 {
		t.Fatalf("n=%d want 12", g.N())
	}
	// Undirected lattice edges: 3*3 horizontal + 2*4 vertical = 17, doubled.
	if g.M() != 34 {
		t.Fatalf("m=%d want 34", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRingAndPath(t *testing.T) {
	r := Ring(5, Unit, 0)
	if r.M() != 5 {
		t.Fatalf("ring m=%d", r.M())
	}
	d := r.HopDist(0)
	if d[4] != 4 {
		t.Fatalf("ring hop distance to 4 = %d", d[4])
	}
	p := Path(5, Unit, 0)
	if p.M() != 4 {
		t.Fatalf("path m=%d", p.M())
	}
	if p.HopDist(0)[4] != 4 {
		t.Fatalf("path hop distance wrong")
	}
	if p.HopDist(4)[0] != Inf {
		t.Fatalf("path should not be reachable backwards")
	}
}

func TestLayered(t *testing.T) {
	g := Layered(3, 4, Unit, 0)
	if g.N() != 3*4+2 {
		t.Fatalf("n=%d", g.N())
	}
	wantM := 4 + 2*16 + 4
	if g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	sink := g.N() - 1
	hops := g.HopDist(0)
	if hops[sink] != 4 {
		t.Fatalf("layered sink hop distance %d, want 4", hops[sink])
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(60, 2, Unit, 5)
	if g.N() != 60 {
		t.Fatalf("n=%d", g.N())
	}
	if g.M() != 2*2*59 {
		t.Fatalf("m=%d want %d", g.M(), 2*2*59)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := g.Reachable(0)
	for v, ok := range seen {
		if !ok {
			t.Fatalf("PA vertex %d unreachable", v)
		}
	}
}

func TestPathLen(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 4)
	g.AddEdge(1, 2, 2) // parallel, shorter
	l, err := g.PathLen([]int{0, 1, 2})
	if err != nil || l != 5 {
		t.Fatalf("PathLen = %d,%v want 5,nil", l, err)
	}
	if _, err := g.PathLen([]int{0, 2}); err == nil {
		t.Fatal("broken path accepted")
	}
	if _, err := g.PathLen(nil); err == nil {
		t.Fatal("empty path accepted")
	}
	l, err = g.PathLen([]int{3})
	if err != nil || l != 0 {
		t.Fatalf("singleton path = %d,%v", l, err)
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	seen := g.Reachable(0)
	want := []bool{true, true, true, false}
	for v := range want {
		if seen[v] != want[v] {
			t.Fatalf("Reachable[%d] = %v, want %v", v, seen[v], want[v])
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := RandomGnm(25, 80, Uniform(9), 11, true)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip n=%d m=%d, want %d,%d", h.N(), h.M(), g.N(), g.M())
	}
	for i := range g.Edges() {
		if g.Edge(i) != h.Edge(i) {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# header comment\n3 2\n# edge\n0 1 5\n\n1 2 6\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Edge(1).Len != 6 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                  // no header
		"2",                 // short header
		"2 1\n0 1",          // short edge line
		"2 1\n0 5 1",        // vertex out of range
		"2 1\n0 1 -3",       // negative length
		"2 2\n0 1 1\n",      // missing edge
		"-1 0\n",            // negative n
		"x y\n",             // garbage header
		"2 1\nx y z\n",      // garbage edge
		"1099511627776 0\n", // n beyond the int32 index range
		"2 1099511627776\n", // m beyond the int32 index range
		"2 2000000000\n",    // huge declared m, no edge lines
		"1 1\n0 0 1\nxx",    // trailing garbage is fine; loop stops after m
	}
	for i, in := range cases {
		_, err := ReadEdgeList(strings.NewReader(in))
		if i == len(cases)-1 {
			if err != nil {
				t.Fatalf("case %d: trailing garbage should be ignored, got %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("case %d (%q): error expected", i, in)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.edges[0].Len = -5
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted negative length")
	}
	g.edges[0].Len = 1
	rows := outRows(g)
	rows[0], rows[1] = rows[1], rows[0]
	setOutRows(g, rows)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted swapped adjacency")
	}
}

func TestHopDistUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d := g.HopDist(0)
	if d[2] != Inf {
		t.Fatalf("unreachable hop dist = %d, want Inf", d[2])
	}
}

// Property: every generator output passes Validate and respects its
// length distribution.
func TestGeneratorsValidateProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 100)
		dist := Uniform(7)
		gs := []*Graph{
			RandomGnm(n, m, dist, seed, true),
			Grid(n/5+1, n/6+2, dist, seed),
			Ring(n, dist, seed),
			Layered(n/8+1, n/10+1, dist, seed),
			PreferentialAttachment(n, 2, dist, seed),
		}
		for _, g := range gs {
			if g.Validate() != nil {
				return false
			}
			if g.M() > 0 && (g.MinLen() < 1 || g.MaxLen() > 7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge-list round trip is the identity on random graphs.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGnm(rng.Intn(20)+2, rng.Intn(60), Uniform(int64(rng.Intn(20)+1)), seed, false)
		var buf bytes.Buffer
		if WriteEdgeList(&buf, g) != nil {
			return false
		}
		h, err := ReadEdgeList(&buf)
		if err != nil || h.N() != g.N() || h.M() != g.M() {
			return false
		}
		for i := range g.Edges() {
			if g.Edge(i) != h.Edge(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 6)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "demo", []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`digraph "demo"`, "0 -> 1 [label=4,style=bold,color=red];", "1 -> 2 [label=6,style=bold,color=red];", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Without highlight, edges are plain.
	buf.Reset()
	if err := WriteDOT(&buf, g, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 -> 1 [label=4];") {
		t.Fatalf("plain DOT wrong:\n%s", buf.String())
	}
}
