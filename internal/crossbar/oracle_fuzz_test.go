package crossbar

import (
	"slices"
	"testing"

	"repro/internal/classic"
	"repro/internal/graph"
)

// fuzzGraph decodes a small multigraph from data, as the core package's
// fuzzGraph does but cut to the crossbar's scale: data[0] picks n in
// [1,12], and each following byte triple (u, v, w) adds the edge
// u%n -> v%n. The low six bits of w give a length in [1,64] and the top
// two shift it left by 0, 5, 10 or 15 bits. Self-loops are skipped (H_n
// has no drop edge for them); parallel edges are kept. With reverse set
// every edge is reversed, which derives a second graph from the same
// bytes.
func fuzzGraph(data []byte, reverse bool) *graph.Graph {
	g := graph.New(int(data[0]%12) + 1)
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		u, v := int(b[0])%g.N(), int(b[1])%g.N()
		if u == v {
			continue
		}
		if reverse {
			u, v = v, u
		}
		g.AddEdge(u, v, int64(b[2]&63+1)<<(5*(b[2]>>6)))
	}
	return g
}

// FuzzCrossbarVsDijkstra checks spiking SSSP on the stacked grid H_n,
// decoded back to the input graph, against classic.Dijkstra on that
// graph, over an embed/unembed sequence on one crossbar of order n to
// n+2: embed a fuzzGraph, unembed it and embed its reverse, then the
// same two graphs again through EmbedOrdered with the Cuthill-McKee
// numbering. Every stage must match Dijkstra exactly, and after the
// last Unembed every drop edge must be disabled again.
func FuzzCrossbarVsDijkstra(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(0), uint8(0))
	f.Add([]byte{4, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1}, uint8(3), uint8(2))
	f.Add([]byte{6, 0, 1, 0, 0, 1, 0, 1, 1, 3, 1, 2, 0, 2, 3, 9, 0, 3, 1}, uint8(0), uint8(1))
	f.Add([]byte{5, 1, 2, 4, 2, 1, 4, 3, 4, 0}, uint8(1), uint8(0))
	f.Add([]byte{3, 0, 1, 255, 0, 2, 1, 2, 1, 200, 1, 2, 130}, uint8(0), uint8(2))
	f.Add([]byte{11, 0, 5, 7, 5, 10, 3, 10, 1, 70, 1, 6, 2, 6, 0, 9}, uint8(0), uint8(1))
	f.Add([]byte{2, 0, 1, 32, 0, 1, 48}, uint8(0), uint8(0)) // parallel edges, the longer last
	f.Add([]byte{0}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, orderRaw uint8) {
		if len(data) == 0 {
			return
		}
		g, rev := fuzzGraph(data, false), fuzzGraph(data, true)
		n := g.N()
		src := int(srcRaw) % n
		c := New(n + int(orderRaw)%3)
		plain := c.Embed
		ordered := func(g *graph.Graph) (int64, error) { return c.EmbedOrdered(g, CuthillMcKee(g)) }
		for _, s := range []struct {
			stage string
			g     *graph.Graph
			embed func(*graph.Graph) (int64, error)
		}{
			{"embed", g, plain},
			{"re-embed reverse", rev, plain},
			{"ordered embed", g, ordered},
			{"ordered re-embed reverse", rev, ordered},
		} {
			if _, err := s.embed(s.g); err != nil {
				t.Fatalf("%s: %v", s.stage, err)
			}
			got := c.SSSP(src).Dist
			if want := classic.Dijkstra(s.g, src).Dist; !slices.Equal(got, want) {
				t.Fatalf("%s (order %d, src %d): crossbar dist %v, want %v (edges %v)",
					s.stage, c.Order, src, got, want, s.g.Edges())
			}
			c.Unembed()
		}
		for e, typ := range c.Types {
			if l := c.G.Edge(e).Len; typ == TypeDrop && l != graph.Inf {
				t.Fatalf("drop edge %d still programmed to %d after the last Unembed", e, l)
			}
		}
	})
}
