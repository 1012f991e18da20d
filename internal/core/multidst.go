package core

import (
	"fmt"

	"repro/internal/graph"
)

// SSSPMulti runs the pseudopolynomial spiking SSSP algorithm with a set
// of destination vertices, halting as soon as every destination's neuron
// has fired — the multiple-destination generalization the paper notes in
// its results summary ("our algorithms can easily be generalized to
// multiple destinations"). Distances are exact for every vertex that
// spiked before the halt (which includes all destinations when
// reachable); SpikeTime is the halt time, i.e. the largest destination
// distance.
func SSSPMulti(g *graph.Graph, src int, dsts []int) *SSSPResult {
	n := g.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", src, n))
	}
	if len(dsts) == 0 {
		panic("core: SSSPMulti needs at least one destination")
	}
	for _, d := range dsts {
		if d < 0 || d >= n {
			panic(fmt.Sprintf("core: destination %d out of range", d))
		}
	}
	if g.M() > 0 && g.MinLen() < 1 {
		panic("core: SSSPMulti requires edge lengths >= 1")
	}

	rn := newRelayNetwork(g)
	for _, d := range dsts {
		rn.net.SetTerminal(d)
	}
	rn.net.RequireAllTerminals()
	rn.net.InduceSpike(src, 0)
	r := rn.net.Run(rn.horizon)

	res := &SSSPResult{
		Dist:     make([]int64, n),
		Pred:     make([]int, n),
		LoadTime: int64(g.M() + n),
		Neurons:  rn.net.N(),
		Synapses: rn.net.Synapses(),
		Stats:    r.Stats,
	}
	for v := 0; v < n; v++ {
		t := rn.net.FirstSpike(v)
		if t < 0 {
			res.Dist[v] = graph.Inf
			res.Pred[v] = -1
			continue
		}
		res.Dist[v] = t
		res.Pred[v] = rn.net.FirstCause(v)
	}
	if r.Halted {
		res.SpikeTime = r.TerminalTime
	} else {
		for _, d := range res.Dist {
			if d < graph.Inf && d > res.SpikeTime {
				res.SpikeTime = d
			}
		}
	}
	return res
}
