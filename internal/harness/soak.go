package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/classic"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// SoakWorkloads is the default workload mix of the soak driver: one
// representative of each instrumented vertical (spiking SSSP, CONGEST
// SSSP, chip-fleet analysis, and the Table 1 sweep with its DISTANCE
// movement half).
var SoakWorkloads = []string{"sssp", "congest", "fleet", "table1"}

// SoakConfig parameterizes a concurrent soak campaign: Workers
// goroutines each executing Iters seeded runs drawn round-robin from
// Mix. Every run gets its own telemetry.Recorder (so manifests stay
// attributable) teed with the shared Probes sink (so a live metrics
// registry sees the aggregate load); the finished manifest goes to
// Submit.
type SoakConfig struct {
	// Workers is the goroutine count; Iters the runs per worker.
	Workers, Iters int
	// Seed derives every run's workload seed (splitmix64 over
	// worker/iteration), so a campaign is reproducible end to end.
	Seed int64
	// Mix lists the workloads to cycle through (default SoakWorkloads).
	Mix []string
	// Probes, when non-nil, additionally observes every run (pass a
	// metrics.Bridge to feed a live registry). If it also implements
	// ObserveRunStats(maxQueueDepth, silentStepsSkipped int64), completed
	// runs report their queue-pressure stats through it.
	Probes telemetry.ProbeSink
	// Submit, when non-nil, receives every completed run manifest (POST
	// to a `spaabench serve` daemon, or collect in a test). Called
	// concurrently from worker goroutines.
	Submit func(*telemetry.Manifest) error
	// Deterministic finalizes manifests without wall-clock fields.
	Deterministic bool
	// Fault, when non-zero, turns the campaign into a chaos soak: every
	// engine run (sssp, fleet) executes under a deterministic
	// faults.Injector seeded per run (stream "soak-fault"), so the whole
	// faulted campaign replays byte-for-byte from Seed.
	Fault faults.Model
	// Budget caps each engine run's simulated horizon (deadline
	// propagation, core.SSSPBudgeted). A run cut off by the budget is
	// counted in SoakReport.TimedOut — degraded, not failed — and the
	// campaign continues. 0 means unlimited.
	Budget int64
}

// SoakReport aggregates a finished campaign.
type SoakReport struct {
	Runs, Errors int64
	// TimedOut counts runs whose engine half was cut off by the
	// per-run Budget (core.ErrTimedOut): served degraded, not failed —
	// they still complete, submit their manifest, and count in Runs.
	TimedOut int64
	// Spikes, Deliveries, Steps, MaxQueueDepth and SilentStepsSkipped
	// sum (respectively high-water) the simulator stats of every run
	// that carried an SNN half — by construction equal to the sum over
	// the emitted manifests' stats.
	Spikes, Deliveries, Steps         int64
	MaxQueueDepth, SilentStepsSkipped int64
	// SpikingMilliPJ and ClassicMilliPJ total the spaa-energy/v1
	// sections of every metered run (spiking side priced on the
	// reference platform); EnergyRuns counts the runs that carried one.
	SpikingMilliPJ, ClassicMilliPJ int64
	EnergyRuns                     int64
	// PerWorkload counts completed runs by workload name.
	PerWorkload map[string]int64
	// Wall is the campaign's measured duration.
	Wall time.Duration
	// FirstError preserves the first failure for reporting.
	FirstError error
}

// RatePerSecond returns completed runs per wall-clock second.
func (r *SoakReport) RatePerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Runs) / r.Wall.Seconds()
}

// StepsPerSecond returns aggregate simulated steps per wall-clock
// second across the campaign (all workers combined).
func (r *SoakReport) StepsPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Wall.Seconds()
}

// DeliveriesPerSecond returns aggregate synaptic deliveries per
// wall-clock second across the campaign.
func (r *SoakReport) DeliveriesPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Deliveries) / r.Wall.Seconds()
}

// SpikingJoulesPerQuery returns the average metered spiking energy per
// energy-carrying run (reference platform), in joules.
func (r *SoakReport) SpikingJoulesPerQuery() float64 {
	if r.EnergyRuns == 0 {
		return 0
	}
	return energy.JoulesFromMilliPJ(r.SpikingMilliPJ) / float64(r.EnergyRuns)
}

// ClassicJoulesPerQuery returns the average classic-comparator energy
// per energy-carrying run, in joules.
func (r *SoakReport) ClassicJoulesPerQuery() float64 {
	if r.EnergyRuns == 0 {
		return 0
	}
	return energy.JoulesFromMilliPJ(r.ClassicMilliPJ) / float64(r.EnergyRuns)
}

// splitmix64 is the per-run seed derivation (the same construction
// internal/faults uses for named streams): one golden-gamma step plus
// finalization, so adjacent (worker, iter) pairs land in uncorrelated
// parts of the seed space without any shared mutable generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Soak runs the campaign and blocks until every worker finishes. The
// report is always returned; the error is the first per-run failure (the
// remaining runs still execute — a soak measures sustained behavior, so
// one failed submit must not stop the load).
func Soak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = SoakWorkloads
	}
	for _, w := range mix {
		if !soakRunnable(w) {
			return nil, fmt.Errorf("harness: unknown soak workload %q (have %v)", w, SoakWorkloads)
		}
	}

	rep := &SoakReport{PerWorkload: make(map[string]int64)}
	var mu sync.Mutex
	//lint:wallclock soak throughput is measured in real time by definition
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < cfg.Iters; i++ {
				workload := mix[(worker+i)%len(mix)]
				runSeed := int64(splitmix64(uint64(cfg.Seed)^uint64(worker)<<32^uint64(i)) >> 1)
				man, stats, err := soakRun(workload, runSeed, cfg)
				mu.Lock()
				if err != nil {
					// A deadline-cut engine run is degraded, not a
					// campaign failure: count it and keep folding the
					// manifest it still produced.
					if errors.Is(err, core.ErrTimedOut) {
						rep.TimedOut++
					} else {
						rep.Errors++
						if rep.FirstError == nil {
							rep.FirstError = fmt.Errorf("%s worker %d iter %d: %w", workload, worker, i, err)
						}
						mu.Unlock()
						continue
					}
					if man == nil {
						mu.Unlock()
						continue
					}
				}
				rep.Runs++
				rep.PerWorkload[workload]++
				if stats != nil {
					rep.Spikes += stats.Spikes
					rep.Deliveries += stats.Deliveries
					rep.Steps += stats.Steps
					rep.SilentStepsSkipped += stats.SilentStepsSkipped
					if stats.MaxQueueDepth > rep.MaxQueueDepth {
						rep.MaxQueueDepth = stats.MaxQueueDepth
					}
				}
				if man.Energy != nil {
					rep.EnergyRuns++
					rep.SpikingMilliPJ += man.Energy.ReferenceMilliPJ()
					rep.ClassicMilliPJ += man.Energy.ClassicMilliPJ
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	//lint:wallclock soak throughput is measured in real time by definition
	rep.Wall = time.Since(start)
	return rep, rep.FirstError
}

func soakRunnable(name string) bool {
	for _, w := range SoakWorkloads {
		if w == name {
			return true
		}
	}
	return false
}

// soakRun executes one seeded workload instance: private recorder teed
// with the shared sink, manifest built the way the corresponding
// spaabench subcommand builds it, queue-pressure stats reported to the
// sink, manifest submitted. A perf.Tracker brackets the run, so every
// soak manifest carries a spaa-perf/v1 section (build / run / report
// phases, throughput rates, alloc deltas — all zeroed under
// Deterministic); the engine workloads (sssp, fleet) additionally price
// energy from the run's snn.Stats, so their manifests carry a
// spaa-energy/v1 section with a Dijkstra comparator counted on the same
// instance.
func soakRun(workload string, runSeed int64, cfg SoakConfig) (*telemetry.Manifest, *snn.Stats, error) {
	rec := telemetry.NewRecorder()
	sink := telemetry.Tee(rec, cfg.Probes)
	man := telemetry.NewManifest("spaabench", workload)
	man.SetConfig("soak_seed", runSeed)
	tracker := perf.NewTracker()
	var classicOps int64
	//lint:wallclock per-run wall time feeds the manifest's wall_ms field by design
	start := time.Now()

	tracker.Phase("build")
	var stats *snn.Stats
	var timedOut bool
	switch workload {
	case "sssp":
		g := graph.RandomGnm(96, 384, graph.Uniform(8), runSeed, true)
		man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: runSeed, Kind: "random"}
		tracker.Phase("run")
		r, err := soakEngineSSSP(g, runSeed, cfg, sink)
		if err != nil {
			return nil, nil, err
		}
		timedOut = r.TimedOut
		stats = &r.Stats
		classicOps = classic.Dijkstra(g, 0).Ops
		rec.Add("neurons", int64(r.Neurons))
	case "congest":
		g := graph.RandomGnm(40, 160, graph.Uniform(8), runSeed, true)
		man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: runSeed, Kind: "random"}
		tracker.Phase("run")
		_, res := congest.SSSP(g, 0, g.N(), sink)
		rec.Add("sssp_rounds", int64(res.Rounds))
	case "fleet":
		g := graph.Grid(8, 8, graph.Unit, runSeed)
		man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: runSeed, Kind: "grid"}
		tracker.Phase("run")
		r, err := soakEngineSSSP(g, runSeed, cfg, sink)
		if err != nil {
			return nil, nil, err
		}
		timedOut = r.TimedOut
		stats = &r.Stats
		classicOps = classic.Dijkstra(g, 0).Ops
		asn := fleet.PartitionBFS(g, 16)
		fleet.AnalyzeSSSP(g, asn, r.Dist, sink)
		rec.Add("chips", int64(asn.Chips))
	case "table1":
		tracker.Phase("run")
		RunTable1(Table1Config{
			Sizes: []int{32}, Density: 4, U: 8, K: 8, C: 4, Seed: runSeed,
			DistanceProbe: sink,
		})
		man.SetConfig("sizes", []int{32})
	default:
		return nil, nil, fmt.Errorf("harness: unknown soak workload %q", workload)
	}

	tracker.Phase("report")
	if stats != nil {
		man.Stats = telemetry.StatsFrom(*stats)
		tracker.SetTotals(stats.Steps, stats.Spikes, stats.Deliveries, stats.MaxQueueDepth)
		if o, ok := cfg.Probes.(interface{ ObserveRunStats(int64, int64) }); ok {
			o.ObserveRunStats(stats.MaxQueueDepth, stats.SilentStepsSkipped)
		}
		// Energy is priced only on the engine workloads, from the run's
		// own stats (silence-skipped steps charged at the idle tariff).
		man.Energy = energy.NewReport(stats.Spikes, stats.Deliveries, 0, stats.SilentStepsSkipped,
			stats.Steps, classicOps, energy.Tariffs())
		if o, ok := cfg.Probes.(interface{ ObserveEnergy(*energy.Report) }); ok {
			o.ObserveEnergy(man.Energy)
		}
	}
	man.AddRecorder(rec)
	man.Perf = tracker.Report(cfg.Deterministic)
	if o, ok := cfg.Probes.(interface{ ObservePerf(*perf.Report) }); ok {
		o.ObservePerf(man.Perf)
	}
	//lint:wallclock manifest finalization stamps real elapsed time; Deterministic zeroes it downstream
	man.Finalize(start, time.Since(start), telemetry.ManifestOptions{Deterministic: cfg.Deterministic})
	if cfg.Submit != nil {
		if err := cfg.Submit(man); err != nil {
			return nil, nil, err
		}
	}
	if timedOut {
		// The run completed degraded: return the finished manifest AND
		// the sentinel, so the campaign can count it without aborting.
		return man, stats, fmt.Errorf("harness: soak %s run cut off by budget %d: %w",
			workload, cfg.Budget, core.ErrTimedOut)
	}
	return man, stats, nil
}

// soakEngineSSSP is the engine half of the sssp and fleet soak
// workloads: the Section 3 spiking run under the campaign's optional
// fault model and deadline budget. With a zero model and no budget it is
// exactly core.SSSP — the pristine path, byte-for-byte.
func soakEngineSSSP(g *graph.Graph, runSeed int64, cfg SoakConfig, probe snn.StepProbe) (*core.SSSPResult, error) {
	var inj snn.Injector
	var slack int64
	if !cfg.Fault.Zero() {
		fm := cfg.Fault.WithSeed(faults.DeriveSeed(cfg.Fault.Seed^runSeed, "soak-fault", 0))
		finj := faults.New(fm)
		inj = finj
		slack = fm.HorizonSlack(g.N())
	}
	return core.SSSPBudgeted(g, 0, -1, inj, slack, cfg.Budget, probe)
}
