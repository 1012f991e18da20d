package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snn"
)

// maxRasterSteps bounds the time axis of a printed wavefront: a raster
// has one column per step from 0 to the last spike time L, so a run with
// a larger L (very long edges) is refused rather than rendered.
const maxRasterSteps = 1 << 16

// runWavefront builds the Section 3 relay network with spike recording,
// optionally attaches a telemetry probe, and runs it to quiescence. It
// returns the network and the relay neuron ids (== vertex ids).
func runWavefront(g *graph.Graph, src int, probe snn.StepProbe) (*snn.Network, []int) {
	n := g.N()
	net := snn.NewNetwork(snn.Config{Rule: snn.FireGTE, Record: true})
	net.SetProbe(probe)
	relays := make([]int, n)
	for v := 0; v < n; v++ {
		relays[v] = net.AddNeuron(snn.Integrator(1))
	}
	for v := 0; v < n; v++ {
		net.Connect(relays[v], relays[v], -float64(g.InDeg(v)+1), 1)
	}
	for _, e := range g.Edges() {
		net.Connect(relays[e.From], relays[e.To], 1, e.Len)
	}
	net.InduceSpike(relays[src], 0)
	net.Run(core.RelayHorizon(n, g.MaxLen()))
	return net, relays
}

// wavefrontRows orders the reached vertices by first-spike time (the
// raster's diagonal sweep) and returns their raster ids, row labels, and
// the last spike time L. It fails when L is above maxRasterSteps.
func wavefrontRows(net *snn.Network, relays []int) (ids []int, labels []string, last int64, err error) {
	type row struct {
		v int
		t int64
	}
	rows := make([]row, 0, len(relays))
	for v := range relays {
		t := net.FirstSpike(relays[v])
		if t < 0 {
			continue
		}
		rows = append(rows, row{v: v, t: t})
		if t > last {
			last = t
		}
	}
	if last > maxRasterSteps {
		return nil, nil, last, fmt.Errorf("harness: last spike time L=%d is too wide to print (at most %d steps)", last, maxRasterSteps)
	}
	// Insertion sort by first-spike time (stable by vertex id).
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && (rows[j].t < rows[j-1].t || (rows[j].t == rows[j-1].t && rows[j].v < rows[j-1].v)); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	ids = make([]int, len(rows))
	labels = make([]string, len(rows))
	for i, r := range rows {
		ids[i] = relays[r.v]
		labels[i] = fmt.Sprintf("v%-3d d=%-4d", r.v, r.t)
	}
	return ids, labels, last, nil
}

// SSSPRaster runs the Section 3 relay network with spike recording and
// renders the wavefront as an ASCII raster: one row per vertex, a '|' at
// the step its neuron fired. The row order is by distance, so the
// diagonal sweep of the wavefront — the "spike timing mimics the priority
// queue" picture — is visible directly. It fails when the last spike
// time is above 2^16 steps, too wide to print.
func SSSPRaster(g *graph.Graph, src int) (string, error) {
	net, relays := runWavefront(g, src, nil)
	ids, labels, last, err := wavefrontRows(net, relays)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "spiking SSSP wavefront (n=%d, m=%d, src=%d): %d vertices reached, L=%d\n",
		g.N(), g.M(), src, len(ids), last)
	b.WriteString(net.RenderRaster(ids, labels, 0, last))
	return b.String(), nil
}
