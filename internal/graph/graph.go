// Package graph provides the weighted directed graphs that every algorithm
// in this repository operates on: the input graphs of the shortest-path
// problems, the synaptic topology of spiking networks, and the crossbar
// host graphs.
//
// Vertices are dense integers 0..N-1. Edge lengths are nonnegative int64
// values; Inf marks an unreachable distance. Graphs may contain parallel
// edges and self-loops (both occur naturally in spiking networks).
//
// Adjacency is stored in CSR (compressed sparse row) form. AddEdge only
// appends to the edge slice; the first adjacency read (Out, In, degrees,
// traversals, Validate) builds per-vertex offsets plus one flat edge-index
// array for each direction with a stable counting sort, so Out(u) and
// In(v) list edge indices in increasing (insertion) order and loading a
// graph is O(n+m) in a constant number of allocations. The index is
// published atomically and dropped by the next AddEdge, so any number of
// goroutines may read a graph that is no longer being mutated.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Inf is the distance reported for unreachable vertices. It is chosen so
// that Inf+x for any realistic edge length x does not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// MaxEdges is the largest edge count (and vertex count) a graph can hold:
// the CSR index stores offsets and edge indices as int32.
const MaxEdges = math.MaxInt32

// Edge is a directed edge with a nonnegative length.
type Edge struct {
	From int
	To   int
	Len  int64
}

// Graph is a directed multigraph with nonnegative integer edge lengths.
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n     int
	edges []Edge
	index atomic.Pointer[adjacency] // nil until first read after a change
}

// adjacency is the CSR index over g.edges: the edges leaving u are
// outIdx[outOff[u]:outOff[u+1]] and those entering v are
// inIdx[inOff[v]:inOff[v+1]], each in increasing edge-index order. It is
// immutable once published.
type adjacency struct {
	outOff, outIdx []int32
	inOff, inIdx   []int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return newSized(n, 0)
}

// newSized returns an empty graph on n vertices with room for m edges, so
// a generator that knows its edge count appends without reallocating.
func newSized(n, m int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	if n > MaxEdges {
		panic(fmt.Sprintf("graph: vertex count %d exceeds %d", n, MaxEdges))
	}
	return &Graph{n: n, edges: make([]Edge, 0, m)}
}

// adj returns the CSR index, building and publishing it if an AddEdge
// has happened since the last read. Concurrent first readers may each
// build an identical index; whichever is stored last is kept.
func (g *Graph) adj() *adjacency {
	if a := g.index.Load(); a != nil {
		return a
	}
	a := g.buildIndex()
	g.index.Store(a)
	return a
}

// buildIndex lays out both directions with one stable counting sort each,
// in a single int32 allocation.
func (g *Graph) buildIndex() *adjacency {
	n, m := g.n, len(g.edges)
	buf := make([]int32, 2*(n+1)+2*m)
	a := &adjacency{
		outOff: buf[:n+1],
		inOff:  buf[n+1 : 2*(n+1)],
		outIdx: buf[2*(n+1) : 2*(n+1)+m],
		inIdx:  buf[2*(n+1)+m:],
	}
	for _, e := range g.edges {
		a.outOff[e.From+1]++
		a.inOff[e.To+1]++
	}
	for v := 0; v < n; v++ {
		a.outOff[v+1] += a.outOff[v]
		a.inOff[v+1] += a.inOff[v]
	}
	// Place each edge at its row's cursor: outOff[u] advances from the
	// start of row u to its end, and the shift below restores the starts.
	for i, e := range g.edges {
		a.outIdx[a.outOff[e.From]] = int32(i)
		a.outOff[e.From]++
		a.inIdx[a.inOff[e.To]] = int32(i)
		a.inOff[e.To]++
	}
	copy(a.outOff[1:], a.outOff[:n])
	copy(a.inOff[1:], a.inOff[:n])
	a.outOff[0], a.inOff[0] = 0, 0
	return a
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge appends a directed edge from u to v with length w and returns
// its edge index. Lengths must be nonnegative. AddEdge must not run
// concurrently with any other method.
func (g *Graph) AddEdge(u, v int, w int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge length %d on (%d,%d)", w, u, v))
	}
	idx := len(g.edges)
	if idx >= MaxEdges {
		panic(fmt.Sprintf("graph: edge count exceeds %d", MaxEdges))
	}
	g.edges = append(g.edges, Edge{From: u, To: v, Len: w})
	if g.index.Load() != nil { // generators never pay the atomic store
		g.index.Store(nil)
	}
	return idx
}

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns the edge slice. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// SetLen changes the length of edge i. It is used by the crossbar embedder,
// which re-programs delays on a fixed topology.
func (g *Graph) SetLen(i int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge length %d", w))
	}
	g.edges[i].Len = w
}

// Out returns the indices of edges leaving u in increasing order. The
// caller must not modify it.
func (g *Graph) Out(u int) []int32 {
	a := g.adj()
	return a.outIdx[a.outOff[u]:a.outOff[u+1]]
}

// In returns the indices of edges entering v in increasing order. The
// caller must not modify it.
func (g *Graph) In(v int) []int32 {
	a := g.adj()
	return a.inIdx[a.inOff[v]:a.inOff[v+1]]
}

// OutDeg returns the out-degree of u.
func (g *Graph) OutDeg(u int) int {
	a := g.adj()
	return int(a.outOff[u+1] - a.outOff[u])
}

// InDeg returns the in-degree of v.
func (g *Graph) InDeg(v int) int {
	a := g.adj()
	return int(a.inOff[v+1] - a.inOff[v])
}

// MaxDeg returns the maximum of in- and out-degrees over all vertices,
// the Δ parameter of Section 4.1 of the paper.
func (g *Graph) MaxDeg() int {
	a := g.adj()
	var d int32
	for v := 0; v < g.n; v++ {
		d = max(d, a.outOff[v+1]-a.outOff[v], a.inOff[v+1]-a.inOff[v])
	}
	return int(d)
}

// MaxLen returns the largest edge length, the parameter U of the paper.
// It returns 0 for an edgeless graph.
func (g *Graph) MaxLen() int64 {
	var u int64
	for i := range g.edges {
		if g.edges[i].Len > u {
			u = g.edges[i].Len
		}
	}
	return u
}

// MinLen returns the smallest edge length, or 0 for an edgeless graph.
func (g *Graph) MinLen() int64 {
	if len(g.edges) == 0 {
		return 0
	}
	m := g.edges[0].Len
	for i := range g.edges {
		if g.edges[i].Len < m {
			m = g.edges[i].Len
		}
	}
	return m
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := newSized(g.n, len(g.edges))
	h.edges = append(h.edges, g.edges...)
	return h
}

// Scale returns a copy of g with every edge length multiplied by f.
// It panics if f <= 0 or if any product would overflow past Inf.
func (g *Graph) Scale(f int64) *Graph {
	if f <= 0 {
		panic(fmt.Sprintf("graph: nonpositive scale factor %d", f))
	}
	h := newSized(g.n, len(g.edges))
	for _, e := range g.edges {
		if e.Len > Inf/f {
			panic("graph: scaled edge length overflows")
		}
		h.AddEdge(e.From, e.To, e.Len*f)
	}
	return h
}

// Map returns a copy of g with every edge length replaced by fn(len).
// Lengths mapped to negative values cause a panic.
func (g *Graph) Map(fn func(int64) int64) *Graph {
	h := newSized(g.n, len(g.edges))
	for _, e := range g.edges {
		h.AddEdge(e.From, e.To, fn(e.Len))
	}
	return h
}

// Reverse returns the graph with all edges reversed.
func (g *Graph) Reverse() *Graph {
	h := newSized(g.n, len(g.edges))
	for _, e := range g.edges {
		h.AddEdge(e.To, e.From, e.Len)
	}
	return h
}

// Degrees returns the sorted multiset of out-degrees, useful in tests.
func (g *Graph) Degrees() []int {
	a := g.adj()
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = int(a.outOff[v+1] - a.outOff[v])
	}
	sort.Ints(ds)
	return ds
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d U=%d}", g.n, len(g.edges), g.MaxLen())
}

// Validate checks internal consistency of the adjacency structure and
// returns an error describing the first inconsistency found: each
// direction's offsets must run monotonically from 0 to M, and each row
// must list, in increasing order, edges with the row's vertex as their
// source (out) or target (in), so every edge appears exactly once.
func (g *Graph) Validate() error {
	a := g.adj()
	m := len(g.edges)
	for _, d := range []struct {
		name     string
		off, idx []int32
		end      func(Edge) int
	}{
		{"out", a.outOff, a.outIdx, func(e Edge) int { return e.From }},
		{"in", a.inOff, a.inIdx, func(e Edge) int { return e.To }},
	} {
		if len(d.off) != g.n+1 || len(d.idx) != m {
			return fmt.Errorf("graph: %s index sized %d/%d, want %d/%d", d.name, len(d.off), len(d.idx), g.n+1, m)
		}
		if d.off[0] != 0 || int(d.off[g.n]) != m {
			return fmt.Errorf("graph: %s offsets span [%d,%d], want [0,%d]", d.name, d.off[0], d.off[g.n], m)
		}
		for v := 0; v < g.n; v++ {
			if d.off[v+1] < d.off[v] || int(d.off[v+1]) > m {
				return fmt.Errorf("graph: %s offsets not monotone within [0,%d] at vertex %d", d.name, m, v)
			}
			prev := int32(-1)
			for _, ei := range d.idx[d.off[v]:d.off[v+1]] {
				if ei <= prev || int(ei) >= m {
					return fmt.Errorf("graph: %s[%d] lists edge %d after %d (of %d edges)", d.name, v, ei, prev, m)
				}
				if end := d.end(g.edges[ei]); end != v {
					return fmt.Errorf("graph: edge %d in %s[%d] has endpoint %d", ei, d.name, v, end)
				}
				prev = ei
			}
		}
	}
	for i, e := range g.edges {
		if e.Len < 0 {
			return fmt.Errorf("graph: edge %d has negative length %d", i, e.Len)
		}
	}
	return nil
}
