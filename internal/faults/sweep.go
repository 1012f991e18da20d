package faults

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// SweepConfig parameterizes one fault-rate sweep campaign.
type SweepConfig struct {
	G         *graph.Graph
	GraphSeed int64
	GraphKind string
	Src       int
	// Base is the model template; each sweep point replaces its DropProb
	// with the point's rate and derives per-trial seeds from Base.Seed.
	Base   Model
	Rates  []float64
	Trials int
	// K is the NMR replica count; Retries the self-check budget.
	K       int
	Retries int
}

// Sweep runs the full campaign: at each fault rate, Trials independent
// trials of (a) a bare single run, (b) the K-replica NMR vote, (c) the
// self-checked run with retry/fallback — all judged against classic
// Dijkstra — and returns the spaa-faults/v1 manifest. Everything is
// derived from (Base.Seed, workload), so the same configuration encodes
// to byte-identical manifests. The graph is compiled once: every run of
// the campaign re-runs that one network. Sweep panics on a configuration
// Check rejects.
func Sweep(cfg SweepConfig) *telemetry.FaultsManifest {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	g := cfg.G
	man := telemetry.NewFaultsManifest("spaabench")
	man.Graph = &telemetry.GraphParams{
		N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: cfg.GraphSeed, Kind: cfg.GraphKind,
	}
	man.Model = cfg.Base.manifest()
	man.SetConfig("src", cfg.Src).SetConfig("trials", cfg.Trials).
		SetConfig("k", cfg.K).SetConfig("retries", cfg.Retries).
		SetConfig("rates", cfg.Rates)

	ref := classic.Dijkstra(g, cfg.Src)
	sn := core.BuildSSSP(g)
	base, err := sn.Run(cfg.Src, -1)
	if err != nil {
		panic(err) // fault-free runs cannot time out
	}
	man.Baseline = telemetry.StatsFrom(base.Stats)
	man.BaselineTime = base.SpikeTime
	if !distEqual(base.Dist, ref.Dist) {
		panic("faults: fault-free spiking SSSP disagrees with Dijkstra") // engine bug
	}

	for ri, rate := range cfg.Rates {
		man.Points = append(man.Points, measurePoint(cfg, sn, ref.Dist, ri, rate))
	}
	return man
}

// Check reports the first invalid field of the configuration: a trial
// count or replica count below 1, a negative retry budget, or a base
// model that Model.Check rejects at any of the sweep's rates.
func (cfg SweepConfig) Check() error {
	switch {
	case cfg.Trials < 1:
		return &FieldError{Field: "Trials", Msg: fmt.Sprintf("%d below 1", cfg.Trials)}
	case cfg.K < 1:
		return &FieldError{Field: "K", Msg: fmt.Sprintf("%d below 1", cfg.K)}
	case cfg.Retries < 0:
		return &FieldError{Field: "Retries", Msg: fmt.Sprintf("%d negative", cfg.Retries)}
	}
	if err := cfg.Base.Check(); err != nil {
		return err
	}
	for _, rate := range cfg.Rates {
		if err := cfg.Base.WithDrop(rate).Check(); err != nil {
			return err
		}
	}
	return nil
}

// measurePoint measures one sweep point: Trials trials at the given drop
// rate, every run on the campaign's compiled network sn.
func measurePoint(cfg SweepConfig, sn *core.SSSPNetwork, refDist []int64, rateIndex int, rate float64) telemetry.FaultsPoint {
	p := telemetry.FaultsPoint{Rate: rate, Trials: cfg.Trials}
	var tally Counters
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := DeriveSeed(cfg.Base.Seed, "sweep-trial", rateIndex*cfg.Trials+trial)
		model := cfg.Base.WithDrop(rate).WithSeed(seed)
		if model.Zero() {
			// Rate-0 points reproduce the pristine engine path exactly;
			// keep the campaign seed out of it so the manifest's rate-0 row
			// equals the fault-free baseline times Trials.
			model.Seed = cfg.Base.Seed
		}

		// (a) Bare single run: what unprotected hardware would report.
		run := Run(sn, cfg.Src, -1, model, 0)
		p.Spikes += run.Res.Stats.Spikes
		p.Deliveries += run.Res.Stats.Deliveries
		p.Steps += run.Res.Stats.Steps
		p.SpikeTime += run.Res.SpikeTime
		tally.Add(run.Counters)
		switch {
		case run.Res.TimedOut:
			p.TimedOut++
		case distEqual(run.Res.Dist, refDist):
			p.Success++
		default:
			p.WrongAnswer++
		}

		if model.Zero() {
			// NMR and self-check trivially succeed on the pristine path; skip
			// the redundant replicas but record the outcomes they would have.
			p.NMRSuccess++
			p.SelfCheckRecovered++
			continue
		}

		// (b) NMR: K perturbed replicas, majority vote.
		nmr := NMR(sn, cfg.Src, model, cfg.K)
		if distEqual(nmr.Dist, refDist) {
			p.NMRSuccess++
		}
		p.NMRDisagreeing += len(nmr.Disagreeing)

		// (c) Self-check: verified result or explicit degraded mode.
		sc := SelfCheck(sn, refDist, cfg.Src, model, cfg.Retries)
		p.SelfCheckCaught += sc.MismatchCaught + sc.TimedOutRuns
		p.Retries += int64(sc.Attempts - 1)
		p.BackoffUnits += sc.BackoffUnits
		if sc.Degraded {
			p.Degraded++
		} else {
			p.SelfCheckRecovered++
		}
	}
	// Price the accumulated single-run deliveries on the reference
	// platform: faults that burn retries or spurious traffic show up as
	// extra joules in the curve, at zero cost to byte-determinism.
	p.EnergyMilliPJ = p.Deliveries * energy.ReferenceTariff().DeliveryMilliPJ
	p.Faults = telemetry.FaultTally{
		Dropped:         tally.Dropped,
		Jittered:        tally.Jittered,
		WeightPerturbed: tally.WeightPerturbed,
		Upsets:          tally.Upsets,
		SuppressedFires: tally.SuppressedFires,
		SpuriousFires:   tally.SpuriousFires,
		StuckSilent:     tally.StuckSilent,
		StuckFiring:     tally.StuckFiring,
	}
	return p
}

// manifest converts the model to its telemetry spelling.
func (m Model) manifest() *telemetry.FaultModel {
	return &telemetry.FaultModel{
		DropProb:        m.DropProb,
		JitterProb:      m.JitterProb,
		JitterMax:       m.JitterMax,
		WeightNoise:     m.WeightNoise,
		StuckSilentProb: m.StuckSilentProb,
		StuckFireProb:   m.StuckFireProb,
		StuckFireTrain:  m.StuckFireTrain,
		UpsetProb:       m.UpsetProb,
		UpsetMag:        m.UpsetMag,
		PinnedSilent:    m.PinnedSilent,
		Seed:            m.Seed,
	}
}

// RenderCurve writes the ASCII degradation curve: one row per sweep
// point with the single-run, NMR, and self-check success fractions, the
// point's metered single-run energy on the reference platform, and a
// bar proportional to single-run success.
func RenderCurve(w io.Writer, man *telemetry.FaultsManifest) {
	const width = 40
	fmt.Fprintf(w, "%-10s %7s %9s %10s %8s %10s  %s\n",
		"rate", "single", "nmr", "selfcheck", "degraded", "µJ", "single-run success")
	for _, p := range man.Points {
		pct := func(n int) float64 { return 100 * float64(n) / float64(p.Trials) }
		bar := strings.Repeat("#", int(float64(width)*float64(p.Success)/float64(p.Trials)+0.5))
		fmt.Fprintf(w, "%-10.4g %6.1f%% %8.1f%% %9.1f%% %8d %10.4f  |%-*s|\n",
			p.Rate, pct(p.Success), pct(p.NMRSuccess), pct(p.SelfCheckRecovered),
			p.Degraded, energy.JoulesFromMilliPJ(p.EnergyMilliPJ)*1e6, width, bar)
	}
}
