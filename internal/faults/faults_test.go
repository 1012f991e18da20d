package faults

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
)

// The Section 3 SSSP workload of BENCH_snn_sssp.json.
func benchGraph() *graph.Graph {
	return graph.RandomGnm(256, 1024, graph.Uniform(8), 1, true)
}

func smallGraph() *graph.Graph {
	return graph.RandomGnm(64, 256, graph.Uniform(8), 3, true)
}

func TestZeroModelReproducesBaseline(t *testing.T) {
	g := benchGraph()
	run := Run(core.BuildSSSP(g), 0, -1, Model{Seed: 1}, 0)
	// The committed BENCH_snn_sssp.json quantities.
	if run.Res.Stats.Spikes != 256 || run.Res.Stats.Deliveries != 1280 || run.Res.Stats.Steps != 28 {
		t.Fatalf("zero-model run drifted from the baseline: %+v", run.Res.Stats)
	}
	if run.Counters != (Counters{}) {
		t.Fatalf("zero model landed faults: %+v", run.Counters)
	}
	ref := classic.Dijkstra(g, 0)
	if !distEqual(run.Res.Dist, ref.Dist) {
		t.Fatal("fault-free distances disagree with Dijkstra")
	}
}

func TestRunSSSPDeterministicPerSeed(t *testing.T) {
	g := smallGraph()
	model := Model{DropProb: 0.02, JitterProb: 0.1, JitterMax: 2, UpsetProb: 0.01, UpsetMag: 0.5, Seed: 9}
	a := Run(core.BuildSSSP(g), 0, -1, model, 0)
	b := Run(core.BuildSSSP(g), 0, -1, model, 0)
	if !distEqual(a.Res.Dist, b.Res.Dist) {
		t.Fatal("same (seed, model) produced different distances")
	}
	if a.Counters != b.Counters {
		t.Fatalf("same (seed, model) landed different faults: %+v vs %+v", a.Counters, b.Counters)
	}
	if a.Res.Stats != b.Res.Stats {
		t.Fatalf("same (seed, model) produced different stats: %+v vs %+v", a.Res.Stats, b.Res.Stats)
	}
	c := Run(core.BuildSSSP(g), 0, -1, model.WithSeed(10), 0)
	if distEqual(a.Res.Dist, c.Res.Dist) && a.Counters == c.Counters {
		t.Fatal("different seeds reproduced the identical faulted run")
	}
}

func TestDropProbabilityOneIsolatesSource(t *testing.T) {
	// With every delivery dropped, only the induced source spike happens:
	// the drop counter must equal the source's full fan-out (its graph
	// out-edges plus the inhibitory self-loop).
	g := smallGraph()
	run := Run(core.BuildSSSP(g), 0, -1, Model{DropProb: 1, Seed: 4}, 0)
	if run.Res.Stats.Spikes != 1 || run.Res.Stats.Deliveries != 0 {
		t.Fatalf("total drop still propagated: %+v", run.Res.Stats)
	}
	if want := int64(len(g.Out(0)) + 1); run.Counters.Dropped != want {
		t.Fatalf("dropped %d, want the source fan-out %d", run.Counters.Dropped, want)
	}
	for v := 1; v < g.N(); v++ {
		if run.Res.Dist[v] < graph.Inf {
			t.Fatalf("vertex %d reached despite total drop", v)
		}
	}
}

func TestPinnedSilentSourceYieldsAllUnreachable(t *testing.T) {
	g := smallGraph()
	run := Run(core.BuildSSSP(g), 0, -1, Model{PinnedSilent: []int{0}, Seed: 1}, 0)
	for v, d := range run.Res.Dist {
		if d < graph.Inf {
			t.Fatalf("vertex %d reachable (%d) despite silent source", v, d)
		}
	}
	if run.Counters.SuppressedFires == 0 || run.Counters.StuckSilent != 1 {
		t.Fatalf("counters missed the pinned fault: %+v", run.Counters)
	}
}

func TestStuckFiringCorruptsAndIsCounted(t *testing.T) {
	g := smallGraph()
	run := Run(core.BuildSSSP(g), 0, -1, Model{StuckFireProb: 0.05, Seed: 2}, 0)
	if run.Counters.StuckFiring == 0 || run.Counters.SpuriousFires == 0 {
		t.Fatalf("5%% stuck-firing drew nothing: %+v", run.Counters)
	}
	if run.Counters.SpuriousFires != int64(run.Counters.StuckFiring)*4 {
		t.Fatalf("default train length 4 not honored: %+v", run.Counters)
	}
}

func TestNMRSingleReplicaMatchesRunSSSP(t *testing.T) {
	g := smallGraph()
	model := Model{DropProb: 0.02, Seed: 5}
	nmr := NMRSSSP(g, 0, model, 1)
	single := Run(core.BuildSSSP(g), 0, -1, model, 0)
	if !distEqual(nmr.Dist, single.Res.Dist) {
		t.Fatal("NMR k=1 is not the single run")
	}
	if len(nmr.Disagreeing) != 0 {
		t.Fatalf("single replica disagrees with itself: %v", nmr.Disagreeing)
	}
}

// The PR's acceptance criterion: at spike-drop p=0.01 on the Section 3
// workload, NMR(K=3) recovers correct distances at least as often as a
// bare single run, and every wrong answer is caught or counted.
func TestNMRBeatsSingleRunAtOnePercentDrop(t *testing.T) {
	g := benchGraph()
	ref := classic.Dijkstra(g, 0)
	const trials = 10
	singleOK, nmrOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		model := Model{DropProb: 0.01, Seed: DeriveSeed(1, "acceptance", trial)}
		if distEqual(Run(core.BuildSSSP(g), 0, -1, model, 0).Res.Dist, ref.Dist) {
			singleOK++
		}
		if distEqual(NMRSSSP(g, 0, model, 3).Dist, ref.Dist) {
			nmrOK++
		}
	}
	if nmrOK < singleOK {
		t.Fatalf("NMR(3) recovered %d/%d, below single-run %d/%d", nmrOK, trials, singleOK, trials)
	}
	if nmrOK == 0 {
		t.Fatalf("NMR(3) recovered nothing at p=0.01 (single: %d/%d)", singleOK, trials)
	}
}

func TestSelfCheckAcceptsCleanRun(t *testing.T) {
	g := smallGraph()
	sc := SSSPWithSelfCheck(g, 0, Model{}, 3)
	if sc.Degraded || sc.Attempts != 1 || sc.BackoffUnits != 0 {
		t.Fatalf("clean run mishandled: %+v", sc)
	}
	ref := classic.Dijkstra(g, 0)
	if !distEqual(sc.Dist, ref.Dist) {
		t.Fatal("accepted distances wrong")
	}
}

func TestSelfCheckDegradesOnPinnedSilentSource(t *testing.T) {
	// A dead source can never produce correct distances: every retry
	// fails, the budget exhausts, and the result must be the classic
	// fallback with the degraded flag — never a silent wrong answer.
	g := smallGraph()
	sc := SSSPWithSelfCheck(g, 0, Model{PinnedSilent: []int{0}, Seed: 1}, 3)
	if !sc.Degraded {
		t.Fatalf("dead source not degraded: %+v", sc)
	}
	if sc.Attempts != 4 || sc.MismatchCaught != 4 {
		t.Fatalf("retry accounting off: attempts=%d caught=%d", sc.Attempts, sc.MismatchCaught)
	}
	if sc.BackoffUnits != 1+2+4 {
		t.Fatalf("exponential backoff charged %d units, want 7", sc.BackoffUnits)
	}
	ref := classic.Dijkstra(g, 0)
	if !distEqual(sc.Dist, ref.Dist) {
		t.Fatal("degraded result is not the classic reference")
	}
}

func TestSelfCheckRecoversWithRetries(t *testing.T) {
	// At a moderate drop rate some attempt within the budget usually
	// verifies; assert the harness recovers on at least one of several
	// campaign seeds and that every recovery reports zero degradation.
	g := smallGraph()
	recovered := false
	for seed := int64(1); seed <= 5; seed++ {
		sc := SSSPWithSelfCheck(g, 0, Model{DropProb: 0.005, Seed: seed}, 5)
		if !sc.Degraded {
			recovered = true
			if sc.Attempts > 1 && sc.BackoffUnits == 0 {
				t.Fatalf("retries without backoff: %+v", sc)
			}
		}
	}
	if !recovered {
		t.Fatal("no seed recovered at p=0.005 within 5 retries")
	}
}

func sweepCfg(g *graph.Graph, trials int) SweepConfig {
	return SweepConfig{
		G: g, GraphSeed: 3, GraphKind: "random", Src: 0,
		Base: Model{Seed: 1}, Rates: []float64{0, 0.01}, Trials: trials, K: 3, Retries: 2,
	}
}

func TestSweepManifestByteIdentical(t *testing.T) {
	g := smallGraph()
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := Sweep(sweepCfg(g, 3)).Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sha256.Sum256(bufs[0].Bytes()) != sha256.Sum256(bufs[1].Bytes()) {
		t.Fatal("identical sweep configurations encoded to different bytes")
	}
}

func TestSweepRateZeroRowMatchesBaseline(t *testing.T) {
	g := benchGraph()
	man := Sweep(SweepConfig{
		G: g, GraphSeed: 1, GraphKind: "random", Src: 0,
		Base: Model{Seed: 1}, Rates: []float64{0}, Trials: 2, K: 3, Retries: 1,
	})
	p := man.Points[0]
	if p.Success != p.Trials || p.WrongAnswer != 0 || p.Degraded != 0 {
		t.Fatalf("rate-0 point not perfect: %+v", p)
	}
	if p.Spikes != int64(p.Trials)*man.Baseline.Spikes ||
		p.Deliveries != int64(p.Trials)*man.Baseline.Deliveries ||
		p.Steps != int64(p.Trials)*man.Baseline.Steps {
		t.Fatalf("rate-0 costs differ from %d x baseline: %+v vs %+v", p.Trials, p, man.Baseline)
	}
	if man.Baseline.Spikes != 256 || man.Baseline.Deliveries != 1280 {
		t.Fatalf("baseline drifted from BENCH_snn_sssp.json: %+v", man.Baseline)
	}
	if want := p.Deliveries * energy.ReferenceTariff().DeliveryMilliPJ; p.EnergyMilliPJ != want {
		t.Fatalf("rate-0 energy %d mpJ, want deliveries priced on the reference tariff (%d)", p.EnergyMilliPJ, want)
	}
}

func TestSweepCountsEveryWrongAnswer(t *testing.T) {
	// No silent wrong distances: at every point, trials partition into
	// success + wrong (counted) + timed out, and every non-degraded
	// self-check trial recovered.
	g := smallGraph()
	man := Sweep(SweepConfig{
		G: g, GraphSeed: 3, GraphKind: "random", Src: 0,
		Base: Model{Seed: 1}, Rates: []float64{0, 0.01, 0.05}, Trials: 4, K: 3, Retries: 2,
	})
	for _, p := range man.Points {
		if p.Success+p.WrongAnswer+p.TimedOut != p.Trials {
			t.Fatalf("outcomes do not partition trials: %+v", p)
		}
		if p.SelfCheckRecovered+p.Degraded != p.Trials {
			t.Fatalf("self-check outcomes do not partition trials: %+v", p)
		}
	}
}

func TestRenderCurveShape(t *testing.T) {
	g := smallGraph()
	man := Sweep(sweepCfg(g, 2))
	var buf bytes.Buffer
	RenderCurve(&buf, man)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(man.Points) {
		t.Fatalf("curve has %d lines, want header + %d points:\n%s", len(lines), len(man.Points), buf.String())
	}
	if !strings.Contains(lines[1], "#") {
		t.Fatalf("rate-0 row has no success bar: %q", lines[1])
	}
	if !strings.Contains(lines[0], "µJ") {
		t.Fatalf("curve header missing the energy column: %q", lines[0])
	}
	for _, p := range man.Points {
		if p.EnergyMilliPJ <= 0 {
			t.Fatalf("sweep point carries no metered energy: %+v", p)
		}
	}
}

// TestModelValidateRejectsBadParams: Check names the offending field, so
// the CLI can name the flag that set it, and Validate panics on the same
// rules.
func TestModelValidateRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		m     Model
		field string
	}{
		{Model{DropProb: -0.1}, "DropProb"},
		{Model{DropProb: 1.1}, "DropProb"},
		{Model{JitterProb: 2}, "JitterProb"},
		{Model{JitterMax: -1}, "JitterMax"},
		{Model{UpsetMag: -1}, "UpsetMag"},
		{Model{StuckSilentProb: 0.8, StuckFireProb: 0.7}, "StuckFireProb"},
		{Model{StuckFireTrain: -2}, "StuckFireTrain"},
	} {
		var fe *FieldError
		if err := c.m.Check(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("%+v: Check() = %v, want a %s FieldError", c.m, err, c.field)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("model %+v validated", c.m)
				}
			}()
			c.m.Validate()
		}()
	}
	(Model{DropProb: 0.5, JitterProb: 1, JitterMax: 3}).Validate() // legal
}

// TestSweepConfigCheck: a bad trial count, replica count, retry budget or
// rate is an error naming the field, before any simulation runs.
func TestSweepConfigCheck(t *testing.T) {
	for _, c := range []struct {
		edit  func(*SweepConfig)
		field string
	}{
		{func(c *SweepConfig) { c.Trials = 0 }, "Trials"},
		{func(c *SweepConfig) { c.K = 0 }, "K"},
		{func(c *SweepConfig) { c.Retries = -1 }, "Retries"},
		{func(c *SweepConfig) { c.Rates = []float64{0, 1.5} }, "DropProb"},
		{func(c *SweepConfig) { c.Base.JitterProb = 2 }, "JitterProb"},
	} {
		cfg := sweepCfg(smallGraph(), 1)
		c.edit(&cfg)
		var fe *FieldError
		if err := cfg.Check(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("want a %s FieldError, Check() = %v", c.field, err)
		}
	}
	if err := sweepCfg(smallGraph(), 1).Check(); err != nil {
		t.Fatalf("legal sweep rejected: %v", err)
	}
}

func TestModelStringAndZero(t *testing.T) {
	if !(Model{Seed: 3}).Zero() {
		t.Fatal("ideal model not Zero")
	}
	if (Model{DropProb: 0.1}).Zero() || (Model{PinnedSilent: []int{1}}).Zero() {
		t.Fatal("faulted model reported Zero")
	}
	s := Model{DropProb: 0.01, Seed: 7}.String()
	if !strings.Contains(s, "drop=0.01") || !strings.Contains(s, "seed=7") {
		t.Fatalf("String() = %q", s)
	}
	if got := (Model{Seed: 2}).String(); !strings.Contains(got, "ideal") {
		t.Fatalf("ideal String() = %q", got)
	}
}

// TestVote: the replica vote takes a strict majority when there is one,
// else the plurality value, ties going to the smaller value; graph.Inf
// (a vertex the replica never reached) votes like any other value.
func TestVote(t *testing.T) {
	inf := int64(graph.Inf)
	for _, c := range []struct {
		name       string
		votes      []int64
		best       int64
		count      int
		noMajority bool
	}{
		{"majority", []int64{5, 3, 5}, 5, 2, false},
		{"plurality tie", []int64{7, 3, 5, 7, 3}, 3, 2, true},
		{"all distinct", []int64{9, 4, 6}, 4, 1, true},
		{"Inf majority", []int64{inf, 2, inf}, inf, 2, false},
		{"Inf loses a tie", []int64{inf, 2, inf, 2}, 2, 2, true},
		{"k=1", []int64{inf}, inf, 1, false},
	} {
		best, count := vote(append([]int64(nil), c.votes...))
		if best != c.best || count != c.count || (2*count <= len(c.votes)) != c.noMajority {
			t.Errorf("%s: vote(%v) = %d x%d, want %d x%d (no majority %v)",
				c.name, c.votes, best, count, c.best, c.count, c.noMajority)
		}
	}
}
