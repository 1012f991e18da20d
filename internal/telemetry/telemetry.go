// Package telemetry is the observability backbone of the reproduction:
// it turns the per-event probe streams of the simulator stack into time
// series, counters, JSON run manifests (the BENCH_*.json format), and
// Chrome trace_event files viewable in Perfetto.
//
// The paper's entire argument is a cost accounting — spikes, synaptic
// deliveries, time steps, ℓ1 movement, message bits — so every
// instrumented engine exposes a small probe interface called with scalar
// deltas only (no per-event allocation, a single nil-check when probing
// is off):
//
//   - snn.StepProbe       — per simulated step: spikes, deliveries,
//     active neurons, pending-queue depth
//   - distance.Probe      — per machine primitive: kind and ℓ1 cost delta
//   - congest.Probe       — per round: messages and bits exchanged
//   - fleet.Probe         — per delivery: send time and chips involved
//
// Recorder implements all four, so one value can watch a whole vertical
// run (graph → algorithm → simulator → chips). It keeps totals, not event
// logs: a DISTANCE primitive or fleet delivery is added into its count on
// arrival, and only steps and CONGEST rounds keep one sample each, since
// their series are read back whole. See docs/OBSERVABILITY.md.
package telemetry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/distance"
)

// Series is one named time series of a run manifest: parallel time and
// value vectors (times are simulated steps, CONGEST rounds, or whatever
// unit the producing probe uses).
type Series struct {
	Name   string  `json:"name"`
	Times  []int64 `json:"t"`
	Values []int64 `json:"v"`
}

// Sum returns the sum of the series' values.
func (s *Series) Sum() int64 {
	var total int64
	for _, v := range s.Values {
		total += v
	}
	return total
}

// stepNames names the per-step series, in stepSample.v order.
var stepNames = [...]string{"spikes", "deliveries", "active", "queue_depth"}

// stepSample is one OnStep call; roundSample is one OnCongestRound call.
type stepSample struct {
	t int64
	v [len(stepNames)]int64
}

type roundSample struct{ t, messages, bits int64 }

// chipStep keys the fleet sends table: deliveries sent by one source chip
// at one send time.
type chipStep struct {
	chip int
	t    int64
}

// Recorder aggregates probe callbacks into time series and counters. It
// implements snn.StepProbe, distance.Probe, congest.Probe and
// fleet.Probe; attach it with snn.(*Network).SetProbe, distance
// Machine.Probe, congest Algorithm.Probe, or the optional trailing probe
// argument the algorithm entry points accept. A Recorder is safe for
// concurrent use: one value can be shared by engines running in
// parallel, with counters accumulating across all of them. Note that
// per-step series samples from concurrent engines interleave in arrival
// order, so a shared Recorder's series are aggregate load curves, not
// per-run traces; give each engine its own Recorder when the series
// must stay attributable.
type Recorder struct {
	mu sync.Mutex

	steps  []stepSample  // guarded by mu
	rounds []roundSample // guarded by mu

	distanceOps      [3]int64 // guarded by mu; indexed by distance.OpKind
	distanceMovement int64    // guarded by mu

	sends                  map[chipStep]int64 // guarded by mu
	fleetIntra, fleetInter int64              // guarded by mu

	counters map[string]int64 // guarded by mu; Add's ad-hoc counters
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{sends: make(map[chipStep]int64), counters: make(map[string]int64)}
}

// OnStep implements snn.StepProbe: one sample per non-silent simulated
// step.
func (r *Recorder) OnStep(t int64, spikes, deliveries, active, queueDepth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps = append(r.steps, stepSample{t, [...]int64{int64(spikes), int64(deliveries), int64(active), int64(queueDepth)}})
}

// OnDistanceOp implements distance.Probe: per-primitive ℓ1 cost deltas,
// counted by kind (an unknown kind counts as an op, as OpKind.String
// names it).
func (r *Recorder) OnDistanceOp(kind distance.OpKind, cost int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.distanceOps[min(uint(kind), uint(distance.KindOp))]++
	r.distanceMovement += cost
}

// OnCongestRound implements congest.Probe: one sample per executed round.
func (r *Recorder) OnCongestRound(round int, messages, bits int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, roundSample{int64(round), messages, bits})
}

// OnFleetDelivery implements fleet.Probe: one spike delivery, counted
// into its source chip's sends at its send time.
func (r *Recorder) OnFleetDelivery(t int64, fromChip, toChip int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sends[chipStep{fromChip, t}]++
	if fromChip == toChip {
		r.fleetIntra++
	} else {
		r.fleetInter++
	}
}

// Add accumulates an ad-hoc named counter (CLI commands use it for
// quantities that have no probe stream, e.g. flow sweep rounds).
func (r *Recorder) Add(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
}

// Counter returns the current value of a named counter (0 if never added).
func (r *Recorder) Counter(name string) int64 {
	return r.Counters()[name]
}

// StepSeries returns the named per-step series ("spikes", "deliveries",
// "active", "queue_depth") or nil if nothing was recorded. The returned
// series is a snapshot copy.
func (r *Recorder) StepSeries(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range stepNames {
		if n == name {
			return r.stepSeriesLocked(i)
		}
	}
	return nil
}

// stepSeriesLocked builds the per-step series of stepNames[i]; r.mu must
// be held.
func (r *Recorder) stepSeriesLocked(i int) *Series {
	n := len(r.steps)
	if n == 0 {
		return nil
	}
	s := &Series{Name: stepNames[i] + "_per_step", Times: make([]int64, n), Values: make([]int64, n)}
	for j, x := range r.steps {
		s.Times[j], s.Values[j] = x.t, x.v[i]
	}
	return s
}

// Series returns every recorded time series in deterministic order:
// the per-step simulator series, the per-round CONGEST series, and one
// sends-per-step series per chip seen by the fleet probe. The returned
// series are snapshot copies.
func (r *Recorder) Series() []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for i := range stepNames {
		if s := r.stepSeriesLocked(i); s != nil {
			out = append(out, *s)
		}
	}
	if n := len(r.rounds); n > 0 {
		msgs := Series{Name: "messages_per_round", Times: make([]int64, n), Values: make([]int64, n)}
		bits := Series{Name: "bits_per_round", Times: msgs.Times, Values: make([]int64, n)}
		for i, x := range r.rounds {
			msgs.Times[i], msgs.Values[i], bits.Values[i] = x.t, x.messages, x.bits
		}
		out = append(out, msgs, bits)
	}
	return append(out, r.chipSeriesLocked()...)
}

// chipSeriesLocked builds one sends-per-time series per source chip from
// the sends table, chips and times ascending; r.mu must be held.
func (r *Recorder) chipSeriesLocked() []Series {
	keys := make([]chipStep, 0, len(r.sends))
	//lint:deterministic keys are sorted below before use
	for k := range r.sends {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].chip != keys[j].chip {
			return keys[i].chip < keys[j].chip
		}
		return keys[i].t < keys[j].t
	})
	var out []Series
	for i, k := range keys {
		if i == 0 || k.chip != keys[i-1].chip {
			out = append(out, Series{Name: fmt.Sprintf("chip%d_sends_per_step", k.chip)})
		}
		s := &out[len(out)-1]
		s.Times = append(s.Times, k.t)
		s.Values = append(s.Values, r.sends[k])
	}
	return out
}

// Counters returns every counter by name: the ad-hoc ones from Add plus
// the probe totals, each named once it has something to count.
// distance_<kind>s appears once that kind ran and distance_movement once
// any primitive ran, congest_* once any round ran, and fleet_intra and
// fleet_inter once nonzero.
func (r *Recorder) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	//lint:deterministic copies into a map; per-key, order-independent
	for k, v := range r.counters {
		out[k] = v
	}
	var ops int64
	for kind, n := range r.distanceOps {
		if n > 0 {
			out["distance_"+distance.OpKind(kind).String()+"s"] += n
			ops += n
		}
	}
	if ops > 0 {
		out["distance_movement"] += r.distanceMovement
	}
	if len(r.rounds) > 0 {
		var msgs, bits int64
		for _, x := range r.rounds {
			msgs += x.messages
			bits += x.bits
		}
		out["congest_messages"] += msgs
		out["congest_bits"] += bits
	}
	if r.fleetIntra != 0 {
		out["fleet_intra"] += r.fleetIntra
	}
	if r.fleetInter != 0 {
		out["fleet_inter"] += r.fleetInter
	}
	return out
}
