package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/graph"
)

// cmdFaults runs the fault-injection sweep: the Section 3 SSSP workload
// under increasing spike-drop rates (plus any other fault knobs), with
// bare, NMR-voted, and self-checked runs at every point. The default
// workload matches BENCH_snn_sssp.json, so the rate-0 row of the emitted
// spaa-faults/v1 manifest must reproduce the committed baseline costs —
// CI checks exactly that.
func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	n := fs.Int("n", 256, "vertices")
	m := fs.Int("m", 1024, "edges")
	u := fs.Int64("u", 8, "max edge length U")
	seed := fs.Int64("seed", 1, "graph seed")
	src := fs.Int("src", 0, "source vertex")
	faultSeed := fs.Int64("fault-seed", 1, "fault campaign seed")
	rates := fs.String("rates", "0,0.002,0.005,0.01,0.02,0.05", "comma-separated spike-drop rates to sweep")
	trials := fs.Int("trials", 20, "trials per sweep point")
	k := fs.Int("k", 3, "NMR replica count")
	retries := fs.Int("retries", 3, "self-check retry budget")
	jitterProb := fs.Float64("jitter", 0, "delay-jitter probability per delivery")
	jitterMax := fs.Int64("jitter-max", 2, "max delay jitter (steps)")
	wnoise := fs.Float64("wnoise", 0, "weight-noise magnitude (relative)")
	silentProb := fs.Float64("silent", 0, "stuck-at-silent probability per neuron")
	fireProb := fs.Float64("fire", 0, "stuck-at-firing probability per neuron")
	upsetProb := fs.Float64("upset", 0, "voltage-upset probability per touched neuron")
	upsetMag := fs.Float64("upset-mag", 0.5, "voltage-upset magnitude")
	stuckSilent := fs.String("stuck-silent", "", "comma-separated vertex ids pinned stuck-at-silent")
	quick := fs.Bool("quick", false, "CI smoke mode: 3 trials over rates 0,0.01")
	strict := fs.Bool("strict", false, "exit nonzero if any trial entered degraded mode")
	metrics := fs.String("metrics", "", "write the spaa-faults/v1 manifest to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGnm(*n, *m, *u); err != nil {
		return err
	}
	if err := checkVertices(*n, *src, -1); err != nil {
		return err
	}
	if *quick {
		*trials = 3
		*rates = "0,0.01"
	}
	rateList, err := parseFloats(*rates)
	if err != nil {
		return err
	}
	base := faults.Model{
		JitterProb:      *jitterProb,
		JitterMax:       *jitterMax,
		WeightNoise:     *wnoise,
		StuckSilentProb: *silentProb,
		StuckFireProb:   *fireProb,
		UpsetProb:       *upsetProb,
		UpsetMag:        *upsetMag,
		Seed:            *faultSeed,
	}
	if *stuckSilent != "" {
		pins, err := parseInts(*stuckSilent)
		if err != nil {
			return err
		}
		base.PinnedSilent = pins
	}

	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	cfg := faults.SweepConfig{
		G: g, GraphSeed: *seed, GraphKind: "random", Src: *src,
		Base: base, Rates: rateList, Trials: *trials, K: *k, Retries: *retries,
	}
	if err := cfg.Check(); err != nil {
		return flagError(err, map[string]string{
			"Trials": "trials", "K": "k", "Retries": "retries", "DropProb": "rates",
			"JitterProb": "jitter", "JitterMax": "jitter-max", "WeightNoise": "wnoise",
			"StuckSilentProb": "silent", "StuckFireProb": "fire",
			"UpsetProb": "upset", "UpsetMag": "upset-mag",
		})
	}
	man := faults.Sweep(cfg)

	fmt.Printf("fault sweep: n=%d m=%d u=%d src=%d | model %s | %d trials/point, NMR k=%d, %d retries\n",
		*n, *m, *u, *src, base.String(), *trials, *k, *retries)
	fmt.Printf("baseline (fault-free): spikes=%d deliveries=%d steps=%d spike_time=%d\n\n",
		man.Baseline.Spikes, man.Baseline.Deliveries, man.Baseline.Steps, man.BaselineTime)
	faults.RenderCurve(os.Stdout, man)

	var degraded, wrong, caught int
	for _, p := range man.Points {
		degraded += p.Degraded
		wrong += p.WrongAnswer
		caught += p.SelfCheckCaught
	}
	fmt.Printf("\ntotals: %d wrong single-run answers (all counted), %d bad attempts caught by self-check, %d degraded fallbacks\n",
		wrong, caught, degraded)

	if *metrics != "" {
		if err := man.WriteFile(*metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote faults manifest to %s\n", *metrics)
	}
	if *strict && degraded > 0 {
		return fmt.Errorf("strict mode: %d trials fell back to degraded (classic) mode", degraded)
	}
	return nil
}

// flagError names the command-line flag behind a faults.FieldError,
// given the flag that sets each field.
func flagError(err error, flags map[string]string) error {
	var fe *faults.FieldError
	if errors.As(err, &fe) && flags[fe.Field] != "" {
		return fmt.Errorf("-%s: %w", flags[fe.Field], err)
	}
	return err
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
