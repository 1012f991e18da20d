package core

import (
	"slices"
	"testing"

	"repro/internal/classic"
	"repro/internal/graph"
)

// addGraphSeeds adds the seed corpus shared by the fuzzGraph targets:
// (graph bytes, source, destination) triples.
func addGraphSeeds(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(0), uint8(0))
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(0), uint8(3))
	f.Add([]byte{6, 0, 1, 0, 0, 1, 0, 1, 1, 3, 1, 2, 0, 2, 3, 9, 0, 3, 1}, uint8(0), uint8(4))
	f.Add([]byte{5, 1, 2, 4, 2, 1, 4, 3, 4, 0}, uint8(1), uint8(5))
	f.Add([]byte{3, 0, 1, 255, 0, 2, 1, 2, 1, 200, 1, 2, 130}, uint8(0), uint8(2))
	f.Add([]byte{0}, uint8(0), uint8(0))
}

// fuzzGraph decodes a small multigraph from data: data[0] picks n in
// [1,24], and each following byte triple (u, v, w) adds the edge
// u%n -> v%n. The low six bits of w give a length in [1,64] and the top
// two shift it left by 0, 5, 10 or 15 bits, so delays also reach past the
// engine's 2^17-step ring into its far map. Self-loops and parallel edges
// are kept.
func fuzzGraph(data []byte) *graph.Graph {
	g := graph.New(int(data[0]%24) + 1)
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		g.AddEdge(int(b[0])%g.N(), int(b[1])%g.N(), int64(b[2]&63+1)<<(5*(b[2]>>6)))
	}
	return g
}

// FuzzSSSPVsDijkstra checks the relay network built from the graph's CSR
// adjacency against classic.Dijkstra. With dst = -1 every distance must
// match; with dst >= 0 the run halts when dst spikes, so exactly the
// vertices no farther than dst carry their true distance and the rest
// read graph.Inf. Every latched predecessor must close a tight edge:
// Pred[v] = u with an edge u->v and Dist[u] + len = Dist[v]. The tight
// edge check would accept a reordered fan-out row, so the network and run
// must also equal the source-order reference build exactly.
func FuzzSSSPVsDijkstra(f *testing.F) {
	addGraphSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, dstRaw uint8) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(data)
		n := g.N()
		src, dst := int(srcRaw)%n, int(dstRaw)%(n+1)-1
		res, err := BuildSSSP(g).Run(src, dst)
		if err != nil {
			t.Fatalf("src %d dst %d: %v", src, dst, err)
		}
		checkAgainstReference(t, g, src, dst)
		want := classic.Dijkstra(g, src).Dist
		horizon := graph.Inf
		if dst >= 0 && want[dst] < graph.Inf {
			horizon = want[dst]
		}
		for v, d := range res.Dist {
			exp := want[v]
			if exp > horizon {
				exp = graph.Inf
			}
			if d != exp {
				t.Fatalf("src %d dst %d: Dist[%d] = %d, want %d (Dijkstra %d)", src, dst, v, d, exp, want[v])
			}
			if d == graph.Inf || v == src {
				if res.Pred[v] != -1 {
					t.Fatalf("src %d dst %d: Pred[%d] = %d for an unlatched or source vertex", src, dst, v, res.Pred[v])
				}
				continue
			}
			u, tight := res.Pred[v], false
			for _, ei := range g.In(v) {
				if e := g.Edge(int(ei)); e.From == u && res.Dist[u] < graph.Inf && res.Dist[u]+e.Len == d {
					tight = true
					break
				}
			}
			if !tight {
				t.Fatalf("src %d dst %d: Pred[%d] = %d closes no tight edge (Dist %d)", src, dst, v, u, d)
			}
		}
	})
}

// tightPreds returns the distinct u with an edge u->v that closes v's
// distance: Dist[u] finite and Dist[u] + len = Dist[v].
func tightPreds(g *graph.Graph, dist []int64, v int) map[int]bool {
	out := map[int]bool{}
	for _, ei := range g.In(v) {
		if e := g.Edge(int(ei)); dist[e.From] < graph.Inf && dist[e.From]+e.Len == dist[v] {
			out[e.From] = true
		}
	}
	return out
}

// FuzzLatchSSSPVsDijkstra checks the gate-level path-construction
// network (SSSPWithLatches) against classic.Dijkstra: every distance
// matches; every reached vertex other than the source either latches a
// predecessor that closes a tight edge or reports a merge; and a merge,
// the OR of simultaneous IDs, happens only where at least two distinct
// tight predecessors exist. The circuit mixes relay, gate and store
// neurons, so it also runs parameter interning on a real netlist.
func FuzzLatchSSSPVsDijkstra(f *testing.F) {
	addGraphSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, _ uint8) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(data)
		src := int(srcRaw) % g.N()
		res := SSSPWithLatches(g, src)
		want := classic.Dijkstra(g, src).Dist
		for v, d := range res.Dist {
			if d != want[v] {
				t.Fatalf("src %d: Dist[%d] = %d, want %d", src, v, d, want[v])
			}
		}
		for v, d := range res.Dist {
			if d == graph.Inf || v == src {
				if res.Pred[v] != -1 || res.Merged[v] {
					t.Fatalf("src %d: vertex %d (dist %d) latched pred %d merged %v", src, v, d, res.Pred[v], res.Merged[v])
				}
				continue
			}
			tight := tightPreds(g, res.Dist, v)
			switch {
			case res.Merged[v] && res.Pred[v] != -1:
				t.Fatalf("src %d: vertex %d both merged and latched %d", src, v, res.Pred[v])
			case res.Merged[v] && len(tight) < 2:
				t.Fatalf("src %d: vertex %d merged with %d tight predecessor(s)", src, v, len(tight))
			case !res.Merged[v] && !tight[res.Pred[v]]:
				t.Fatalf("src %d: Pred[%d] = %d closes no tight edge (Dist %d)", src, v, res.Pred[v], d)
			}
		}
	})
}

// FuzzKHopVsBellmanFord checks every k-hop solver against
// classic.BellmanFordKHop on small fuzzGraphs (n <= 12 and m <= 24, so
// the compiled gate-level networks stay small): for every hop bound k from 1 to n-1,
// the message-level KHopTTL and KHopPoly and the compiled CompileKHopTTL,
// CompileKHopTTLFast and CompileKHopPoly must each return dist_k exactly.
func FuzzKHopVsBellmanFord(f *testing.F) {
	addGraphSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, _ uint8) {
		if len(data) == 0 {
			return
		}
		// At most 12 vertices and 24 edges.
		data = append([]byte{data[0] % 12}, data[1:min(len(data), 1+3*24)]...)
		g := fuzzGraph(data)
		n := g.N()
		src := int(srcRaw) % n
		for k := 1; k < n; k++ {
			want := classic.BellmanFordKHop(g, src, k, false).Dist
			ttlC, _ := CompileKHopTTL(g, src, k).Run()
			ttlF, _ := CompileKHopTTLFast(g, src, k).Run()
			poly, _ := CompileKHopPoly(g, src, k).Run()
			for _, c := range []struct {
				name string
				dist []int64
			}{
				{"KHopTTL", KHopTTL(g, src, -1, k).Dist},
				{"KHopPoly", KHopPoly(g, src, k).Dist},
				{"CompileKHopTTL", ttlC},
				{"CompileKHopTTLFast", ttlF},
				{"CompileKHopPoly", poly},
			} {
				if !slices.Equal(c.dist, want) {
					t.Fatalf("n %d src %d k %d: %s dist %v, want %v (edges %v)", n, src, k, c.name, c.dist, want, g.Edges())
				}
			}
		}
	})
}

// FuzzApproxKHopSandwich checks the bicriteria guarantee of ApproxKHop
// against classic.BellmanFordKHop on small fuzzGraphs (n <= 12 and
// m <= 24, as in FuzzKHopVsBellmanFord): for every hop bound k from 1 to
// n-1 and ε in {0.5, 1}, dist_h(v) <= Dist[v] <= (1+ε)·dist_k(v) with
// h = HopSlack. A finite estimate therefore needs an h-hop witness path,
// and a vertex with a k-hop path must get a finite estimate. The scale
// factor ε·2^i/2k is inexact in floating point, so both sides allow a
// relative slack of 1e-9.
func FuzzApproxKHopSandwich(f *testing.F) {
	addGraphSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, _ uint8) {
		if len(data) == 0 {
			return
		}
		// At most 12 vertices and 24 edges.
		data = append([]byte{data[0] % 12}, data[1:min(len(data), 1+3*24)]...)
		g := fuzzGraph(data)
		n := g.N()
		src := int(srcRaw) % n
		const slack = 1 + 1e-9
		for k := 1; k < n; k++ {
			distK := classic.BellmanFordKHop(g, src, k, false).Dist
			for _, eps := range []float64{0.5, 1} {
				res := ApproxKHop(g, src, k, eps)
				distH := classic.BellmanFordKHop(g, src, res.HopSlack, false).Dist
				for v, d := range res.Dist {
					if d < float64(graph.Inf) && float64(distH[v]) > d*slack {
						t.Fatalf("n %d src %d k %d eps %v: Dist[%d] = %v below dist_h = %d (h %d, edges %v)",
							n, src, k, eps, v, d, distH[v], res.HopSlack, g.Edges())
					}
					if distK[v] < graph.Inf && d > (1+eps)*float64(distK[v])*slack {
						t.Fatalf("n %d src %d k %d eps %v: Dist[%d] = %v above (1+eps)·dist_k = %v (edges %v)",
							n, src, k, eps, v, d, (1+eps)*float64(distK[v]), g.Edges())
					}
				}
			}
		}
	})
}
