package main

import (
	"math/rand"

	"repro/internal/classic"
	"repro/internal/graph"
)

// digest identifies a distance vector by its length and an FNV-1a hash of
// every entry, so an answer is checked entry by entry against a reference
// without keeping thousands of reference vectors in memory.
type digest struct {
	n int
	h uint64
}

func digestOf(dist []int64) digest {
	h := uint64(14695981039346656037)
	for _, d := range dist {
		u := uint64(d)
		for k := 0; k < 8; k++ {
			h ^= u & 0xff
			h *= 1099511628211
			u >>= 8
		}
	}
	return digest{n: len(dist), h: h}
}

// matches reports whether dist equals the vector want was taken from.
func (want digest) matches(dist []int64) bool {
	return len(dist) == want.n && digestOf(dist) == want
}

// pickSources draws k distinct sources of g whose Dijkstra tree reaches at
// least nine tenths of the vertices, so every op does comparable work, and
// returns them with their reference digests. If random draws keep missing,
// it settles for vertex 0, which the generator's arborescence connects to
// every vertex.
func pickSources(g *graph.Graph, k int, rng *rand.Rand) ([]int, []digest) {
	var srcs []int
	var want []digest
	seen := map[int]bool{}
	try := func(src int) {
		if seen[src] {
			return
		}
		seen[src] = true
		dist := classic.Dijkstra(g, src).Dist
		reached := 0
		for _, d := range dist {
			if d < graph.Inf {
				reached++
			}
		}
		if 10*reached >= 9*g.N() {
			srcs = append(srcs, src)
			want = append(want, digestOf(dist))
		}
	}
	for tries := 0; len(srcs) < k && tries < 64*k; tries++ {
		try(rng.Intn(g.N()))
	}
	if len(srcs) == 0 {
		try(0)
	}
	return srcs, want
}
