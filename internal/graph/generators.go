package graph

import (
	"fmt"
	"math/rand"
)

// LengthDist describes how generators draw edge lengths.
type LengthDist struct {
	// Min and Max bound the generated lengths (inclusive). Max is the
	// parameter U of the paper. Min must be >= 1 and <= Max.
	Min, Max int64
}

// Unit is the all-ones length distribution.
var Unit = LengthDist{Min: 1, Max: 1}

// Uniform returns a LengthDist drawing uniformly from [1, max].
func Uniform(max int64) LengthDist {
	if max < 1 {
		panic(fmt.Sprintf("graph: uniform length bound %d < 1", max))
	}
	return LengthDist{Min: 1, Max: max}
}

func (d LengthDist) draw(rng *rand.Rand) int64 {
	if d.Min < 1 || d.Max < d.Min {
		panic(fmt.Sprintf("graph: invalid length distribution [%d,%d]", d.Min, d.Max))
	}
	if d.Min == d.Max {
		return d.Min
	}
	return d.Min + rng.Int63n(d.Max-d.Min+1)
}

// RandomGnm returns a random directed graph with n vertices and m edges and
// lengths drawn from dist. Self-loops are excluded; parallel edges are
// allowed (the multigraph model of the paper permits them, and excluding
// them would make dense sweeps quadratic). A spanning arborescence from
// vertex 0 is embedded first so that all vertices are reachable from the
// conventional source vertex 0; pass connect=false to skip it.
func RandomGnm(n, m int, dist LengthDist, seed int64, connect bool) *Graph {
	if n < 1 {
		panic("graph: RandomGnm needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	size := m
	if connect && n > 1 {
		size = max(m, n-1)
	}
	g := newSized(n, max(size, 0))
	if connect && n > 1 {
		// Random arborescence: attach each vertex to a random earlier one.
		perm := rng.Perm(n - 1)
		for i := 0; i < n-1; i++ {
			v := perm[i] + 1
			// Attach v to a uniformly random already-attached vertex;
			// vertices perm[0..i-1]+1 and 0 are attached so far.
			var parent int
			if i == 0 {
				parent = 0
			} else if j := rng.Intn(i + 1); j == i {
				parent = 0
			} else {
				parent = perm[j] + 1
			}
			g.AddEdge(parent, v, dist.draw(rng))
		}
	}
	if n < 2 && m > g.M() {
		panic(fmt.Sprintf("graph: cannot place %d non-loop edges on %d vertex", m, n))
	}
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, dist.draw(rng))
	}
	return g
}

// Complete returns the complete directed graph K_n (no self-loops) with
// lengths from dist.
func Complete(n int, dist LengthDist, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := newSized(n, max(n*(n-1), 0))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.AddEdge(u, v, dist.draw(rng))
			}
		}
	}
	return g
}

// Grid returns a rows x cols directed grid in which every lattice edge is
// present in both directions, with lengths from dist. Vertex (r,c) has
// index r*cols+c. Grids model the planar, short-path workloads where the
// paper predicts the largest neuromorphic advantage (L small relative to m).
func Grid(rows, cols int, dist LengthDist, seed int64) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid needs positive dimensions")
	}
	rng := rand.New(rand.NewSource(seed))
	g := newSized(rows*cols, 2*(rows*(cols-1)+cols*(rows-1)))
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), dist.draw(rng))
				g.AddEdge(id(r, c+1), id(r, c), dist.draw(rng))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), dist.draw(rng))
				g.AddEdge(id(r+1, c), id(r, c), dist.draw(rng))
			}
		}
	}
	return g
}

// Ring returns a directed cycle 0 -> 1 -> ... -> n-1 -> 0 with lengths
// from dist. Rings maximize path length relative to edge count, the regime
// where the paper predicts conventional algorithms win.
func Ring(n int, dist LengthDist, seed int64) *Graph {
	if n < 1 {
		panic("graph: Ring needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := newSized(n, n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, dist.draw(rng))
	}
	return g
}

// Path returns the directed path 0 -> 1 -> ... -> n-1 with lengths from dist.
func Path(n int, dist LengthDist, seed int64) *Graph {
	if n < 1 {
		panic("graph: Path needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := newSized(n, n-1)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, dist.draw(rng))
	}
	return g
}

// Layered returns a layered DAG with the given number of layers, width
// vertices per layer, and all width^2 edges between consecutive layers.
// Vertex 0 is a source connected to every layer-0 vertex, and the final
// vertex is a sink fed by the last layer. Layered DAGs make the k-hop
// constraint bind tightly: every source-sink path has exactly layers+1
// edges. Vertex count is layers*width+2; the sink is N()-1.
func Layered(layers, width int, dist LengthDist, seed int64) *Graph {
	if layers < 1 || width < 1 {
		panic("graph: Layered needs positive dimensions")
	}
	rng := rand.New(rand.NewSource(seed))
	n := layers*width + 2
	g := newSized(n, 2*width+(layers-1)*width*width)
	src, sink := 0, n-1
	id := func(layer, i int) int { return 1 + layer*width + i }
	for i := 0; i < width; i++ {
		g.AddEdge(src, id(0, i), dist.draw(rng))
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddEdge(id(l, i), id(l+1, j), dist.draw(rng))
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddEdge(id(layers-1, i), sink, dist.draw(rng))
	}
	return g
}

// PreferentialAttachment returns a directed scale-free-like graph built by
// preferential attachment: vertices arrive one at a time and attach deg
// out-edges to earlier vertices chosen proportionally to their current
// degree (plus one). Models the heavy-tailed topologies of the paper's
// motivating cognitive/graph-analytics workloads.
func PreferentialAttachment(n, deg int, dist LengthDist, seed int64) *Graph {
	if n < 1 || deg < 1 {
		panic("graph: PreferentialAttachment needs positive parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	g := newSized(n, 2*(n-1)*deg)
	// targets is a degree-weighted multiset of earlier vertices.
	targets := make([]int, 0, 2*n*deg)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		for d := 0; d < deg; d++ {
			u := targets[rng.Intn(len(targets))]
			if u == v {
				u = (u + 1) % v
			}
			g.AddEdge(v, u, dist.draw(rng))
			g.AddEdge(u, v, dist.draw(rng))
			targets = append(targets, u)
		}
		targets = append(targets, v)
	}
	return g
}
