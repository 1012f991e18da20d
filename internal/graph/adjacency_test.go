package graph

import (
	"slices"
	"sync"
	"testing"
)

// outRows returns a copy of g's out-adjacency, one row per vertex.
func outRows(g *Graph) [][]int32 {
	rows := make([][]int32, g.N())
	for u := range rows {
		rows[u] = slices.Clone(g.Out(u))
	}
	return rows
}

// setOutRows overwrites g's out-adjacency with rows, bypassing the
// counting sort, so a test can corrupt the CSR index.
func setOutRows(g *Graph, rows [][]int32) {
	a := *g.adj()
	a.outOff = make([]int32, len(rows)+1)
	a.outIdx = nil
	for u, r := range rows {
		a.outIdx = append(a.outIdx, r...)
		a.outOff[u+1] = int32(len(a.outIdx))
	}
	g.index.Store(&a)
}

// refGraph is the pre-CSR adjacency model: one slice per vertex, grown by
// append as edges arrive. The CSR index must match it in content and order.
type refGraph struct {
	edges   []Edge
	out, in [][]int32
}

func newRef(n int) *refGraph {
	return &refGraph{out: make([][]int32, n), in: make([][]int32, n)}
}

func (r *refGraph) add(u, v int, w int64) {
	i := int32(len(r.edges))
	r.edges = append(r.edges, Edge{From: u, To: v, Len: w})
	r.out[u] = append(r.out[u], i)
	r.in[v] = append(r.in[v], i)
}

// refOf rebuilds the reference model from an edge list with fn applied to
// each edge, the way Clone/Reverse/Scale/Map derive a graph.
func refOf(n int, edges []Edge, fn func(Edge) Edge) *refGraph {
	r := newRef(n)
	for _, e := range edges {
		e = fn(e)
		r.add(e.From, e.To, e.Len)
	}
	return r
}

func checkAgainstRef(t *testing.T, what string, g *Graph, r *refGraph) {
	t.Helper()
	if g.N() != len(r.out) || !slices.Equal(g.Edges(), r.edges) {
		t.Fatalf("%s: n=%d edges=%v, want n=%d edges=%v", what, g.N(), g.Edges(), len(r.out), r.edges)
	}
	maxDeg, degs := 0, make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		if !slices.Equal(g.Out(v), r.out[v]) || !slices.Equal(g.In(v), r.in[v]) {
			t.Fatalf("%s: vertex %d out=%v in=%v, want out=%v in=%v", what, v, g.Out(v), g.In(v), r.out[v], r.in[v])
		}
		if g.OutDeg(v) != len(r.out[v]) || g.InDeg(v) != len(r.in[v]) {
			t.Fatalf("%s: vertex %d degrees %d/%d, want %d/%d", what, v, g.OutDeg(v), g.InDeg(v), len(r.out[v]), len(r.in[v]))
		}
		maxDeg = max(maxDeg, len(r.out[v]), len(r.in[v]))
		degs[v] = len(r.out[v])
	}
	slices.Sort(degs)
	if g.MaxDeg() != maxDeg || !slices.Equal(g.Degrees(), degs) {
		t.Fatalf("%s: MaxDeg=%d Degrees=%v, want %d %v", what, g.MaxDeg(), g.Degrees(), maxDeg, degs)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// FuzzGraphAdjacency drives random AddEdge sequences, with adjacency reads
// interleaved so the index is built and then invalidated, and checks the
// graph and its Clone/Reverse/Scale/Map derivatives against the
// per-vertex-append reference model.
func FuzzGraphAdjacency(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 0, 0, 0, 5, 1, 2, 2, 2, 0})
	f.Add([]byte{0, 9, 0, 0})
	f.Add([]byte{15, 4, 3, 7, 0, 1, 1, 8, 7, 3, 12, 0, 14, 0, 5, 5, 0, 0, 0, 9, 9, 6, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%16) + 1
		g, r := New(n), newRef(n)
		// Each 3-byte op either reads the adjacency (op%4 == 0) or adds
		// the edge (a%n, b%n) with length op/4.
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], int(ops[1])%n, int(ops[2])%n
			if op%4 == 0 {
				checkAgainstRef(t, "interleaved read", g, r)
				continue
			}
			if i := g.AddEdge(a, b, int64(op/4)); i != len(r.edges) {
				t.Fatalf("AddEdge returned %d, want %d", i, len(r.edges))
			}
			r.add(a, b, int64(op/4))
		}
		checkAgainstRef(t, "graph", g, r)
		same := func(e Edge) Edge { return e }
		checkAgainstRef(t, "Clone", g.Clone(), refOf(n, r.edges, same))
		checkAgainstRef(t, "Reverse", g.Reverse(), refOf(n, r.edges, func(e Edge) Edge {
			return Edge{From: e.To, To: e.From, Len: e.Len}
		}))
		checkAgainstRef(t, "Scale", g.Scale(3), refOf(n, r.edges, func(e Edge) Edge {
			e.Len *= 3
			return e
		}))
		inc := func(w int64) int64 { return w + 1 }
		checkAgainstRef(t, "Map", g.Map(inc), refOf(n, r.edges, func(e Edge) Edge {
			e.Len = inc(e.Len)
			return e
		}))
		// A derived graph stays independent: adding to it must not disturb
		// the original's published index.
		h := g.Clone()
		h.AddEdge(0, n-1, 1)
		checkAgainstRef(t, "graph after Clone+AddEdge", g, r)
	})
}

// TestGraphConcurrentReaders reads one fresh graph, whose index nobody has
// built yet, from several goroutines at once. Run under -race it fails if
// the first-read index publication is a plain lazy field.
func TestGraphConcurrentReaders(t *testing.T) {
	g := RandomGnm(512, 2048, Uniform(8), 5, true)
	r := refOf(g.N(), g.Edges(), func(e Edge) Edge { return e })
	const readers = 8
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < g.N(); v++ {
				if !slices.Equal(g.Out(v), r.out[v]) || !slices.Equal(g.In(v), r.in[v]) {
					errs <- "adjacency differs from reference"
					return
				}
			}
			if g.MaxDeg() < 1 {
				errs <- "MaxDeg < 1"
				return
			}
			if reach := g.Reachable(0); slices.Contains(reach, false) {
				errs <- "connected graph has an unreachable vertex"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRandomGnmAllocs pins graph generation, including the first index
// build, at a constant allocation count independent of n: the edge slice is
// pre-sized and the CSR index is one int32 buffer.
func TestRandomGnmAllocs(t *testing.T) {
	allocs := func(n, m int) float64 {
		return testing.AllocsPerRun(20, func() {
			RandomGnm(n, m, Uniform(16), 1, true).MaxDeg()
		})
	}
	small, large := allocs(256, 1024), allocs(4096, 16384)
	if small != large || large > 8 {
		t.Fatalf("RandomGnm+MaxDeg allocs: n=256 %v, n=4096 %v; want equal and <= 8", small, large)
	}
}
