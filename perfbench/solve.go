package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/service"
)

// solveBench times one caller solving SSSP on one large graph: each op is
// core.BuildSSSP + SSSPNetwork.Run(src, -1) from a rotating source, with
// the garbage collector settled before the op, outside its timing.
type solveBench struct {
	n, m  int
	u     int64
	gseed int64
	srcs  []int
	want  []digest
	// walkQ are service queries of the largest size the service accepts,
	// with this workload's density and lengths: the traced run walks them
	// to measure the layers the solve path does not touch.
	walkQ []service.Query

	g    *graph.Graph
	gens []time.Duration // graph generation time of each set-up
}

func newSolve(seed int64, n, m int, u int64, sources int) *solveBench {
	rng := rand.New(rand.NewSource(seed))
	b := &solveBench{n: n, m: m, u: u, gseed: rng.Int63()}
	b.srcs, b.want = pickSources(b.graph(), sources, rng)
	const sn = 4096
	for i := 0; i < 4; i++ {
		b.walkQ = append(b.walkQ, service.Query{
			Workload: "sssp", N: sn, M: sn * m / n, U: u, GraphSeed: rng.Int63(), Src: 0,
		})
	}
	return b
}

func (b *solveBench) graph() *graph.Graph {
	return graph.RandomGnm(b.n, b.m, graph.Uniform(b.u), b.gseed, true)
}

func (b *solveBench) clients() int { return 1 }

// setup generates the graph and solves once from every source.
func (b *solveBench) setup() (census, error) {
	var c census
	t := time.Now()
	b.g = b.graph()
	b.gens = append(b.gens, time.Since(t))
	for i, src := range b.srcs {
		res, err := core.BuildSSSP(b.g).Run(src, -1)
		if err != nil {
			return c, fmt.Errorf("warm-up from %d: %w", src, err)
		}
		addStats(&c.stats, res.Stats)
		if !b.want[i].matches(res.Dist) {
			c.failed++
		}
	}
	return c, nil
}

func (b *solveBench) op(i int, tr *tracer) sample {
	k := i % len(b.srcs)
	t0 := time.Now()
	runtime.GC()
	s := sample{traced: tr != nil, key: k}
	var dist []int64
	var err error
	if tr == nil {
		start := time.Now()
		var res *core.SSSPResult
		res, err = core.BuildSSSP(b.g).Run(b.srcs[k], -1)
		s.lat = time.Since(start)
		if err == nil {
			dist = res.Dist
		}
	} else {
		var e engineSample
		e, dist, err = tracedSolve(b.g, b.srcs[k])
		s.lat, s.engine = e.total(), &e
		e.addSpans(tr, i, tr.add("solve", i, -1, e.t0, e.t3))
	}
	s.ok, s.got = err == nil, digestOf(dist)
	s.pause = time.Since(t0) - s.lat
	return s
}

func (b *solveBench) verify(ss []sample) {
	for j := range ss {
		if ss[j].got != b.want[ss[j].key] {
			ss[j].ok = false
		}
	}
}

// walk measures the service, HTTP, fault and classic layers, which the
// solve path does not touch, on a fault-free service.
func (b *solveBench) walk(tr *tracer) ([]walkSample, error) {
	h := newHTTPService(serviceConfig(faults.Model{}, b.gseed))
	defer h.close()
	var out []walkSample
	for i, q := range b.walkQ {
		w, err := walk(tr, -1-i, h, q)
		if err != nil {
			return out, err
		}
		out = append(out, w)
	}
	return out, nil
}

func (b *solveBench) close() {}
