package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/snn"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the public call it makes.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps the traced run's spans in memory; write puts them out once
// the run has ended. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id, the parent argument of its
// children's spans.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Op: op, ID: id, Parent: parent,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
	})
	return id
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// drainProbe marks the engine step after which no event is pending: on a
// fault-free run that is the end of the simulation inside core's Run, and
// what follows is the first-spike readout into Dist and Pred.
type drainProbe struct{ at time.Time }

func (p *drainProbe) OnStep(t int64, spikes, deliveries, active, queueDepth int) {
	if queueDepth == 0 {
		p.at = time.Now()
	}
}

// engineSample is one BuildSSSP + Run, split at the layer seams.
type engineSample struct {
	// t0..t3 bracket the build (t0, t1) and the run (t2, t3); drained is
	// when the engine's event queue emptied inside the run.
	t0, t1, t2, drained, t3  time.Time
	buildAlloc, runAlloc     uint64
	buildMallocs, runMallocs uint64
	gcCycles                 uint32
	gcPause                  time.Duration
	stats                    snn.Stats
}

func (e *engineSample) build() time.Duration  { return e.t1.Sub(e.t0) }
func (e *engineSample) run() time.Duration    { return e.drained.Sub(e.t2) }
func (e *engineSample) digest() time.Duration { return e.t3.Sub(e.drained) }
func (e *engineSample) total() time.Duration  { return e.build() + e.t3.Sub(e.t2) }

// addSpans records the build, engine-run and readout spans under parent.
func (e *engineSample) addSpans(tr *tracer, op, parent int) {
	tr.add("core.BuildSSSP", op, parent, e.t0, e.t1)
	tr.add("snn.Network.Run", op, parent, e.t2, e.drained)
	tr.add("core.readout", op, parent, e.drained, e.t3)
}

// tracedSolve builds and runs g from src, timing core's build, the snn
// engine run and core's readout separately. Memory statistics are read
// between the timed calls, never inside them. It returns the distances
// apart from the sample, which callers keep.
func tracedSolve(g *graph.Graph, src int) (engineSample, []int64, error) {
	var e engineSample
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.t0 = time.Now()
	sn := core.BuildSSSP(g)
	e.t1 = time.Now()
	runtime.ReadMemStats(&m1)
	probe := &drainProbe{}
	e.t2 = time.Now()
	res, err := sn.Run(src, -1, probe)
	e.t3 = time.Now()
	runtime.ReadMemStats(&m2)
	if err != nil {
		return e, nil, fmt.Errorf("run from %d: %w", src, err)
	}
	e.drained = probe.at
	if e.drained.IsZero() {
		e.drained = e.t3
	}
	e.buildAlloc, e.runAlloc = m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	e.buildMallocs, e.runMallocs = m1.Mallocs-m0.Mallocs, m2.Mallocs-m1.Mallocs
	e.gcCycles = (m2.NumGC - m2.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	e.gcPause = time.Duration(m2.PauseTotalNs - m0.PauseTotalNs)
	e.stats = res.Stats
	return e, res.Dist, nil
}

// walkSample is one service query replayed through its layers in sequence.
type walkSample struct {
	gen      time.Duration
	engine   engineSample
	dijkstra time.Duration
	// faults is the fault layer's share: the NMR votes the ladder casts
	// under the service's model, plus the self-check when every vote fails.
	faults      time.Duration
	faulty      bool // the service runs under a non-zero fault model
	replicaRuns int
	execute     time.Duration
	do          time.Duration
	http        time.Duration
	respBytes   int
	mode        string
	retries     int
}

// walk replays q through its layers one call at a time: graph generation,
// core build and engine run, the classic reference, the fault layer under
// the service's model, Service.Execute, Service.Do and the HTTP round trip.
// Layer self times come from subtracting consecutive steps. Every answer on
// the way is checked against the classic reference.
func walk(tr *tracer, op int, h *httpService, q service.Query) (walkSample, error) {
	var w walkSample
	type step struct {
		name       string
		start, end time.Time
	}
	var steps []step
	timed := func(name string, f func()) time.Duration {
		s := step{name: name, start: time.Now()}
		f()
		s.end = time.Now()
		steps = append(steps, s)
		return s.end.Sub(s.start)
	}
	root := time.Now()

	var g *graph.Graph
	w.gen = timed("graph.RandomGnm", func() {
		g = graph.RandomGnm(q.N, q.M, graph.Uniform(q.U), q.GraphSeed, true)
	})
	eng, dist, err := tracedSolve(g, q.Src)
	if err != nil {
		return w, err
	}
	w.engine = eng
	var ref []int64
	w.dijkstra = timed("classic.Dijkstra", func() { ref = classic.Dijkstra(g, q.Src).Dist })
	want := digestOf(ref)
	if !want.matches(dist) {
		return w, fmt.Errorf("walk: engine answer for graph %d differs from Dijkstra", q.GraphSeed)
	}
	w.faults = timed("faults", func() { w.replicaRuns = faultLayer(h.cfg, g, q) })
	w.faulty = !h.cfg.Model.Zero()

	var resp *service.Response
	w.execute = timed("service.Execute", func() { resp = h.svc.Execute(q, h.svc.Clock().Now()) })
	w.mode, w.retries = resp.Mode, resp.Retries
	if resp.Status != 200 || !want.matches(resp.Dist) {
		return w, fmt.Errorf("walk: Execute for graph %d: status %d mode %s, distances differ from Dijkstra", q.GraphSeed, resp.Status, resp.Mode)
	}
	w.do = timed("service.Do", func() { resp = h.svc.Do(q) })
	if resp.Status != 200 || !want.matches(resp.Dist) {
		return w, fmt.Errorf("walk: Do for graph %d: status %d mode %s, distances differ from Dijkstra", q.GraphSeed, resp.Status, resp.Mode)
	}
	var a answer
	w.http = timed("http.roundtrip", func() { a, err = h.ask(q) })
	if err != nil {
		return w, err
	}
	w.respBytes = a.bytes
	if a.Status != 200 || !want.matches(a.Dist) {
		return w, fmt.Errorf("walk: HTTP for graph %d: status %d mode %s, distances differ from Dijkstra", q.GraphSeed, a.Status, a.Mode)
	}

	id := tr.add("walk", op, -1, root, time.Now())
	eng.addSpans(tr, op, id)
	for _, s := range steps {
		tr.add(s.name, op, id, s.start, s.end)
	}
	return w, nil
}

// faultLayer runs what the degradation ladder runs in the fault layer for
// q under cfg and returns the number of engine runs it took. With a zero
// model the service never enters the fault layer, so this measures one
// fault-free NMR vote. With faults it mirrors the ladder's rungs 2 and 3:
// NMR votes, reseeded per retry, then the self-check when no vote held.
// The seed derivation follows internal/service so the replay meets the
// same faults the service did.
func faultLayer(cfg service.Config, g *graph.Graph, q service.Query) int {
	if cfg.Model.Zero() {
		faults.NMRSSSP(g, q.Src, cfg.Model, cfg.NMRReplicas)
		return cfg.NMRReplicas
	}
	model := cfg.Model.WithSeed(faults.DeriveSeed(cfg.Seed^q.GraphSeed, "service-"+q.Workload, q.Src))
	runs := 0
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		m := model
		if attempt > 0 {
			m = model.WithSeed(faults.DeriveSeed(model.Seed, "service-nmr-retry", attempt))
		}
		vote := faults.NMRSSSP(g, q.Src, m, cfg.NMRReplicas)
		runs += cfg.NMRReplicas
		if len(vote.NoMajority) == 0 && vote.TimedOut == 0 {
			return runs
		}
	}
	check := faults.SSSPWithSelfCheck(g, q.Src, model.WithSeed(
		faults.DeriveSeed(model.Seed, "service-selfcheck", 0)), cfg.MaxRetries)
	return runs + check.Attempts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
