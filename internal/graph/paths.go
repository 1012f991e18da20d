package graph

import "fmt"

// PathLen returns the total length of the vertex path p in g, verifying
// that each consecutive pair is joined by an edge; it uses the shortest
// parallel edge when several exist. It returns an error for broken paths.
func (g *Graph) PathLen(p []int) (int64, error) {
	if len(p) == 0 {
		return 0, fmt.Errorf("graph: empty path")
	}
	var total int64
	for i := 0; i+1 < len(p); i++ {
		u, v := p[i], p[i+1]
		best := Inf
		for _, ei := range g.Out(u) {
			if e := g.Edge(int(ei)); e.To == v && e.Len < best {
				best = e.Len
			}
		}
		if best == Inf {
			return 0, fmt.Errorf("graph: no edge (%d,%d) in path", u, v)
		}
		total += best
	}
	return total, nil
}

// Reachable returns the set of vertices reachable from src, as a boolean
// slice indexed by vertex.
func (g *Graph) Reachable(src int) []bool {
	seen := make([]bool, g.n)
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.Out(u) {
			v := g.edges[ei].To
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// HopDist returns the unweighted (hop-count) distances from src, with Inf
// for unreachable vertices. It is the α/k reference used to choose hop
// budgets in experiments.
func (g *Graph) HopDist(src int) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range g.Out(u) {
			v := g.edges[ei].To
			if dist[v] == Inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
