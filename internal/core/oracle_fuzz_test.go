package core

import (
	"testing"

	"repro/internal/classic"
	"repro/internal/graph"
)

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
// Pred[v] = u with an edge u->v and Dist[u] + len = Dist[v].
func FuzzSSSPVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(0), uint8(0))
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(0), uint8(3))
	f.Add([]byte{6, 0, 1, 0, 0, 1, 0, 1, 1, 3, 1, 2, 0, 2, 3, 9, 0, 3, 1}, uint8(0), uint8(4))
	f.Add([]byte{5, 1, 2, 4, 2, 1, 4, 3, 4, 0}, uint8(1), uint8(5))
	f.Add([]byte{3, 0, 1, 255, 0, 2, 1, 2, 1, 200, 1, 2, 130}, uint8(0), uint8(2))
	f.Add([]byte{0}, uint8(0), uint8(0))
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
