package perf

import "time"

// SpanSink observes closed tracker phases as they complete: name plus
// wall-clock start offset and duration in microseconds. The per-query
// trace layer implements it (trace.Active.PhaseSpan) so build/run
// phases measured here land as wall refinements on the query's trace
// spans; implementations must tolerate being called from the tracker's
// single goroutine only.
type SpanSink interface {
	PhaseSpan(name string, startMicros, durMicros int64)
}

// Tracker brackets one run: it snapshots the heap at construction,
// accumulates named phase spans (build / run / report), and renders a
// Report when stopped. A Tracker is single-goroutine (one per run, the
// way harness.Soak and the perf tier use it).
type Tracker struct {
	start    time.Time
	startMem MemSnapshot

	phases     []PhaseReport
	phaseStart time.Time
	sink       SpanSink

	stopped bool
	wall    time.Duration
	endMem  MemSnapshot

	steps, spikes, deliveries, maxQueue int64
}

// NewTracker starts the clock and takes the opening heap snapshot.
func NewTracker() *Tracker {
	//lint:wallclock the tracker exists to measure real elapsed time; Report(deterministic) zeroes it
	now := time.Now()
	return &Tracker{start: now, phaseStart: now, startMem: ReadMem()}
}

// Phase closes the currently open phase (if any) and opens a new one
// named name. Phase names feed bounded metric labels; stick to the
// build / run / report vocabulary.
func (t *Tracker) Phase(name string) {
	if t == nil || t.stopped {
		return
	}
	//lint:wallclock phase spans measure real elapsed time; Report(deterministic) zeroes them
	now := time.Now()
	t.closePhase(now)
	t.phases = append(t.phases, PhaseReport{Name: name})
	t.phaseStart = now
}

// SetSpanSink attaches a phase observer; nil detaches. Call before the
// first Phase so every span is seen.
func (t *Tracker) SetSpanSink(s SpanSink) {
	if t == nil {
		return
	}
	t.sink = s
}

// closePhase stamps the open phase's duration as of now and forwards
// the span to the sink, if any.
func (t *Tracker) closePhase(now time.Time) {
	if n := len(t.phases); n > 0 {
		t.phases[n-1].WallMS = float64(now.Sub(t.phaseStart).Microseconds()) / 1e3
		if t.sink != nil {
			t.sink.PhaseSpan(t.phases[n-1].Name,
				t.phaseStart.Sub(t.start).Microseconds(),
				now.Sub(t.phaseStart).Microseconds())
		}
	}
}

// SetTotals records the run's counter-derived totals (from the run's
// snn.Stats) for the report's throughput math.
func (t *Tracker) SetTotals(steps, spikes, deliveries, maxQueueDepth int64) {
	if t == nil {
		return
	}
	t.steps, t.spikes, t.deliveries, t.maxQueue = steps, spikes, deliveries, maxQueueDepth
}

// Stop closes the open phase, stamps the total wall time, and takes the
// closing heap snapshot. Idempotent; Report calls it implicitly.
func (t *Tracker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	//lint:wallclock run wall time is the quantity being measured; Report(deterministic) zeroes it
	now := time.Now()
	t.closePhase(now)
	t.wall = now.Sub(t.start)
	t.endMem = ReadMem()
}

// Report renders the spaa-perf/v1 section. With deterministic true the
// wall-derived and runtime-delta fields are zeroed (phase names kept),
// making the report byte-stable for a given seeded workload.
func (t *Tracker) Report(deterministic bool) *Report {
	t.Stop()
	r := &Report{
		Schema:        Schema,
		Steps:         t.steps,
		Spikes:        t.spikes,
		Deliveries:    t.deliveries,
		MaxQueueDepth: t.maxQueue,
		Phases:        append([]PhaseReport(nil), t.phases...),
	}
	if t.steps > 0 {
		r.DeliveriesPerStepMilli = t.deliveries * 1000 / t.steps
	}
	if deterministic {
		r.ZeroWallClock()
		return r
	}
	r.WallMS = float64(t.wall.Microseconds()) / 1e3
	if sec := t.wall.Seconds(); sec > 0 {
		r.StepsPerSec = float64(t.steps) / sec
		r.DeliveriesPerSec = float64(t.deliveries) / sec
	}
	r.AllocObjects = monoDelta(t.startMem.Mallocs, t.endMem.Mallocs)
	r.AllocBytes = monoDelta(t.startMem.TotalAlloc, t.endMem.TotalAlloc)
	r.HeapBytes = int64(t.endMem.HeapAlloc)
	r.GCCycles = monoDelta(uint64(t.startMem.NumGC), uint64(t.endMem.NumGC))
	r.GCPauseNS = monoDelta(t.startMem.PauseTotalNs, t.endMem.PauseTotalNs)
	return r
}
