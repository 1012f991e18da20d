package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Manifest regression diffing: `spaabench regress` re-runs the workload a
// committed BENCH_*.json baseline describes and compares the fresh
// manifest against it field by field. Every quantity in a manifest except
// created_unix_ms and wall_ms is a deterministic model cost, so the
// default tolerance is zero — any drift is a behavior change.

// Tolerance configures how much relative drift DiffManifests accepts.
type Tolerance struct {
	// Rel is the accepted relative deviation for cost quantities (stats,
	// counters, series sums and lengths): |fresh-base| <= Rel*|base|.
	// Zero demands exact equality. Workload identity (graph parameters)
	// is always compared exactly.
	Rel float64
}

// within reports whether fresh lies inside the tolerance band around base.
func (tol Tolerance) within(base, fresh int64) bool {
	if base == fresh {
		return true
	}
	return math.Abs(float64(fresh-base)) <= tol.Rel*math.Abs(float64(base))
}

// Drift is one quantity that moved outside tolerance between a baseline
// manifest and a fresh run.
type Drift struct {
	Field       string
	Base, Fresh int64
	// Msg, when set, replaces the numeric rendering (structural drift
	// like a renamed command or a vanished series).
	Msg string
}

func (d Drift) String() string {
	if d.Msg != "" {
		return d.Field + ": " + d.Msg
	}
	delta := "n/a"
	if d.Base != 0 {
		delta = fmt.Sprintf("%+.1f%%", 100*float64(d.Fresh-d.Base)/math.Abs(float64(d.Base)))
	}
	return fmt.Sprintf("%s: baseline %d, fresh %d (%s)", d.Field, d.Base, d.Fresh, delta)
}

// DiffManifests compares a fresh manifest against a baseline under the
// tolerance and returns every drifted quantity in deterministic field
// order (empty slice: no drift). Wall-clock fields (created_unix_ms,
// wall_ms) are never compared. Compared are:
//
//   - workload identity: command and graph parameters (exact),
//   - stats: all snn.Stats fields,
//   - counters: the union of names (a counter present on one side only
//     is drift),
//   - series: matched by name; lengths and value sums,
//   - perf (when both sides carry the section): the counter-derived
//     fields only — steps, spikes, deliveries, queue high-water under
//     the tolerance, deliveries/step exactly. Wall-derived perf fields
//     (rates, phase times, alloc/GC deltas) are machine noise and are
//     never compared: no committed baseline stores them (perf baselines
//     are written -deterministic), and wall time is gated by the
//     perfbench module against the parent commit instead,
//   - energy (when both sides carry the section): event totals, classic
//     op count and totals under the tolerance; tariff figures
//     (classic_op_millipj, per-platform delivery_millipj) exactly —
//     the whole section is wall-free, so everything is comparable,
//   - trace (when both sides carry the section): sampler counters and
//     per-stage count/unit/engine totals under the tolerance. Wall-mode
//     trace sections never reach a committed baseline (Finalize strips
//     them), so the comparison is over logical units only; the sampled
//     trace window itself is compared by size, not contents.
func DiffManifests(base, fresh *Manifest, tol Tolerance) []Drift {
	var out []Drift
	check := func(field string, b, f int64, exact bool) {
		if b == f {
			return
		}
		if !exact && tol.within(b, f) {
			return
		}
		out = append(out, Drift{Field: field, Base: b, Fresh: f})
	}

	if base.Command != fresh.Command {
		out = append(out, Drift{Field: "command", Msg: fmt.Sprintf("baseline %q, fresh %q", base.Command, fresh.Command)})
	}
	switch {
	case base.Graph == nil && fresh.Graph == nil:
	case base.Graph == nil || fresh.Graph == nil:
		out = append(out, Drift{Field: "graph", Msg: "present on one side only"})
	default:
		check("graph.n", int64(base.Graph.N), int64(fresh.Graph.N), true)
		check("graph.m", int64(base.Graph.M), int64(fresh.Graph.M), true)
		check("graph.max_len", base.Graph.MaxLen, fresh.Graph.MaxLen, true)
		check("graph.seed", base.Graph.Seed, fresh.Graph.Seed, true)
	}

	switch {
	case base.Stats == nil && fresh.Stats == nil:
	case base.Stats == nil || fresh.Stats == nil:
		out = append(out, Drift{Field: "stats", Msg: "present on one side only"})
	default:
		check("stats.spikes", base.Stats.Spikes, fresh.Stats.Spikes, false)
		check("stats.deliveries", base.Stats.Deliveries, fresh.Stats.Deliveries, false)
		check("stats.steps", base.Stats.Steps, fresh.Stats.Steps, false)
		check("stats.max_queue_depth", base.Stats.MaxQueueDepth, fresh.Stats.MaxQueueDepth, false)
		check("stats.silent_steps_skipped", base.Stats.SilentStepsSkipped, fresh.Stats.SilentStepsSkipped, false)
	}

	switch {
	case base.Perf == nil && fresh.Perf == nil:
	case base.Perf == nil || fresh.Perf == nil:
		out = append(out, Drift{Field: "perf", Msg: "present on one side only"})
	default:
		check("perf.steps", base.Perf.Steps, fresh.Perf.Steps, false)
		check("perf.spikes", base.Perf.Spikes, fresh.Perf.Spikes, false)
		check("perf.deliveries", base.Perf.Deliveries, fresh.Perf.Deliveries, false)
		check("perf.max_queue_depth", base.Perf.MaxQueueDepth, fresh.Perf.MaxQueueDepth, false)
		check("perf.deliveries_per_step_milli", base.Perf.DeliveriesPerStepMilli, fresh.Perf.DeliveriesPerStepMilli, true)
	}

	switch {
	case base.Energy == nil && fresh.Energy == nil:
	case base.Energy == nil || fresh.Energy == nil:
		out = append(out, Drift{Field: "energy", Msg: "present on one side only"})
	default:
		check("energy.spikes", base.Energy.Spikes, fresh.Energy.Spikes, false)
		check("energy.deliveries", base.Energy.Deliveries, fresh.Energy.Deliveries, false)
		check("energy.steps", base.Energy.Steps, fresh.Energy.Steps, false)
		check("energy.idle_steps", base.Energy.IdleSteps, fresh.Energy.IdleSteps, false)
		check("energy.load_events", base.Energy.LoadEvents, fresh.Energy.LoadEvents, false)
		check("energy.classic_ops", base.Energy.ClassicOps, fresh.Energy.ClassicOps, false)
		// Tariff figures are Table 3 data, not workload cost: any change
		// means the pricing model moved, which must always surface.
		check("energy.classic_op_millipj", base.Energy.ClassicOpMilliPJ, fresh.Energy.ClassicOpMilliPJ, true)
		check("energy.classic_millipj", base.Energy.ClassicMilliPJ, fresh.Energy.ClassicMilliPJ, false)
		for _, bRow := range base.Energy.Platforms {
			fRow := fresh.Energy.PlatformRow(bRow.Platform)
			if fRow == nil {
				out = append(out, Drift{Field: "energy.platforms." + bRow.Platform + " (gone)", Base: bRow.SpikingMilliPJ, Fresh: 0})
				continue
			}
			check("energy.platforms."+bRow.Platform+".delivery_millipj", bRow.DeliveryMilliPJ, fRow.DeliveryMilliPJ, true)
			check("energy.platforms."+bRow.Platform+".spiking_millipj", bRow.SpikingMilliPJ, fRow.SpikingMilliPJ, false)
			check("energy.platforms."+bRow.Platform+".advantage_milli", bRow.AdvantageMilli, fRow.AdvantageMilli, false)
		}
		for _, fRow := range fresh.Energy.Platforms {
			if base.Energy.PlatformRow(fRow.Platform) == nil {
				out = append(out, Drift{Field: "energy.platforms." + fRow.Platform + " (new)", Base: 0, Fresh: fRow.SpikingMilliPJ})
			}
		}
		for _, bPh := range base.Energy.Phases {
			fPh := fresh.Energy.PhaseRow(bPh.Phase)
			if fPh == nil {
				out = append(out, Drift{Field: "energy.phases." + bPh.Phase + " (gone)", Base: bPh.MilliPJ, Fresh: 0})
				continue
			}
			check("energy.phases."+bPh.Phase+".events", bPh.Events, fPh.Events, false)
			check("energy.phases."+bPh.Phase+".millipj", bPh.MilliPJ, fPh.MilliPJ, false)
		}
		for _, fPh := range fresh.Energy.Phases {
			if base.Energy.PhaseRow(fPh.Phase) == nil {
				out = append(out, Drift{Field: "energy.phases." + fPh.Phase + " (new)", Base: 0, Fresh: fPh.MilliPJ})
			}
		}
	}

	switch {
	case base.Trace == nil && fresh.Trace == nil:
	case base.Trace == nil || fresh.Trace == nil:
		out = append(out, Drift{Field: "trace", Msg: "present on one side only"})
	default:
		check("trace.started", base.Trace.Started, fresh.Trace.Started, false)
		check("trace.sampled", base.Trace.Sampled, fresh.Trace.Sampled, false)
		check("trace.dropped", base.Trace.Dropped, fresh.Trace.Dropped, false)
		check("trace.spans", base.Trace.Spans, fresh.Trace.Spans, false)
		check("trace.traces", int64(len(base.Trace.Traces)), int64(len(fresh.Trace.Traces)), false)
		freshStages := make(map[string]int, len(fresh.Trace.Stages))
		for i := range fresh.Trace.Stages {
			freshStages[fresh.Trace.Stages[i].Stage] = i
		}
		for _, bs := range base.Trace.Stages {
			fi, ok := freshStages[bs.Stage]
			if !ok {
				out = append(out, Drift{Field: "trace.stages." + bs.Stage + " (gone)", Base: bs.Count, Fresh: 0})
				continue
			}
			fs := fresh.Trace.Stages[fi]
			delete(freshStages, bs.Stage)
			check("trace.stages."+bs.Stage+".count", bs.Count, fs.Count, false)
			check("trace.stages."+bs.Stage+".units", bs.Units, fs.Units, false)
			check("trace.stages."+bs.Stage+".steps", bs.Steps, fs.Steps, false)
			check("trace.stages."+bs.Stage+".deliveries", bs.Deliveries, fs.Deliveries, false)
		}
		for _, name := range sortedStageNames(freshStages) {
			out = append(out, Drift{Field: "trace.stages." + name + " (new)", Base: 0,
				Fresh: fresh.Trace.Stages[freshStages[name]].Count})
		}
	}

	for _, name := range counterNames(base.Counters, fresh.Counters) {
		b, inBase := base.Counters[name]
		f, inFresh := fresh.Counters[name]
		switch {
		case !inBase:
			out = append(out, Drift{Field: "counters." + name + " (new)", Base: 0, Fresh: f})
		case !inFresh:
			out = append(out, Drift{Field: "counters." + name + " (gone)", Base: b, Fresh: 0})
		default:
			check("counters."+name, b, f, false)
		}
	}

	baseSeries := seriesByName(base.Series)
	freshSeries := seriesByName(fresh.Series)
	for _, name := range seriesNames(base.Series, fresh.Series) {
		b, inBase := baseSeries[name]
		f, inFresh := freshSeries[name]
		switch {
		case !inBase:
			out = append(out, Drift{Field: "series." + name + " (new)", Base: 0, Fresh: int64(len(f.Times))})
		case !inFresh:
			out = append(out, Drift{Field: "series." + name + " (gone)", Base: int64(len(b.Times)), Fresh: 0})
		default:
			check("series."+name+".len", int64(len(b.Times)), int64(len(f.Times)), false)
			check("series."+name+".sum", b.Sum(), f.Sum(), false)
		}
	}
	return out
}

// sortedStageNames returns the map's keys sorted (the leftover fresh-side
// trace stages after the baseline pass).
func sortedStageNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	//lint:deterministic keys are collected here and sorted below
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// counterNames returns the sorted union of counter names.
func counterNames(a, b map[string]int64) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var names []string
	//lint:deterministic keys are collected here and sorted below
	for k := range a {
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	//lint:deterministic keys are collected here and sorted below
	for k := range b {
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

func seriesByName(s []Series) map[string]*Series {
	out := make(map[string]*Series, len(s))
	for i := range s {
		out[s[i].Name] = &s[i]
	}
	return out
}

// seriesNames returns the union of series names, baseline order first.
func seriesNames(a, b []Series) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var names []string
	for i := range a {
		if !seen[a[i].Name] {
			seen[a[i].Name] = true
			names = append(names, a[i].Name)
		}
	}
	for i := range b {
		if !seen[b[i].Name] {
			seen[b[i].Name] = true
			names = append(names, b[i].Name)
		}
	}
	return names
}
