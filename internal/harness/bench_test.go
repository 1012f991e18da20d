package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/energy"
	"repro/internal/telemetry"
)

// smokeCase is the smoke tier's sssp case, the one that carries a perf
// section.
func smokeCase(t *testing.T) Case {
	t.Helper()
	for _, c := range CasesForTier("smoke") {
		if c.Kind == "sssp" {
			return c
		}
	}
	t.Fatal("smoke tier has no sssp case")
	return Case{}
}

// TestRunPerfCaseDeterministicByteStable: two deterministic executions
// of the sssp smoke case must encode byte-identical manifests — the
// property the committed BENCH_<case>.json baselines rely on — and the
// perf section keeps its counter half while its wall half reads zero.
func TestRunPerfCaseDeterministicByteStable(t *testing.T) {
	c := smokeCase(t)
	var bufs [2]bytes.Buffer
	for i := range bufs {
		man, err := RunCase(c, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := man.Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
		if p := man.Perf; p == nil || p.Steps != man.Stats.Steps || p.WallMS != 0 || p.AllocObjects != 0 {
			t.Errorf("deterministic perf section = %+v, want stats totals and zero wall fields", p)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("deterministic perf manifests differ between runs")
	}
}

// TestRunPerfCaseShape: the sssp case's manifest carries the perf section
// with the expected phases, the result-integrity counters, and totals
// matching the simulator stats; the energy section prices that same run.
func TestRunPerfCaseShape(t *testing.T) {
	c := smokeCase(t)
	man, err := RunCase(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if man.Perf == nil {
		t.Fatal("manifest has no perf section")
	}
	p := man.Perf
	if p.Steps != man.Stats.Steps || p.Deliveries != man.Stats.Deliveries {
		t.Errorf("perf totals %d/%d diverge from stats %d/%d",
			p.Steps, p.Deliveries, man.Stats.Steps, man.Stats.Deliveries)
	}
	if len(p.Phases) != 3 || p.Phases[0].Name != "build" || p.Phases[1].Name != "run" || p.Phases[2].Name != "report" {
		t.Errorf("phases = %+v, want build/run/report", p.Phases)
	}
	if p.WallMS <= 0 || p.StepsPerSec <= 0 {
		t.Errorf("non-deterministic run has empty wall data: wall=%v rate=%v", p.WallMS, p.StepsPerSec)
	}
	// The smoke graph is generated connected: every vertex is reached.
	if got := man.Counters["reached"]; got != int64(c.N) {
		t.Errorf("reached %d of %d vertices", got, c.N)
	}
	if man.Counters["dist_checksum"] <= 0 {
		t.Error("distance checksum empty")
	}
	if e := man.Energy; e == nil || e.Spikes != man.Stats.Spikes || e.Deliveries != man.Stats.Deliveries ||
		e.LoadEvents != int64(c.N+c.M) || e.ClassicOps == 0 {
		t.Errorf("energy section %+v does not price the run's stats %+v", e, man.Stats)
	}
	if man.Graph == nil || man.Graph.Kind != c.Graph {
		t.Errorf("graph params %+v, want generator kind %q", man.Graph, c.Graph)
	}
}

// TestRenderPerfTrend: the table renders one row per manifest, keyed by
// the case name, with "-" for the wall time a deterministic run zeroes.
func TestRenderPerfTrend(t *testing.T) {
	c := smokeCase(t)
	man, err := RunCase(c, true)
	if err != nil {
		t.Fatal(err)
	}
	bare := telemetry.NewManifest("spaabench", "bench:ghost_case")
	out := RenderPerfTrend([]*telemetry.Manifest{man, bare})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got:\n%s", out)
	}
	row := strings.Fields(lines[1])
	if row[0] != c.Name || row[1] != fmt.Sprint(man.Perf.Steps) || row[len(row)-1] != "-" {
		t.Errorf("case row wrong: %q", lines[1])
	}
	if got := strings.Fields(lines[2]); got[0] != "ghost_case" || got[1] != "-" {
		t.Errorf("row without a perf section wrong: %q", lines[2])
	}
}

// TestSoakManifestsCarryPerf: every soak manifest now has a perf
// section whose totals match its stats section.
func TestSoakManifestsCarryPerf(t *testing.T) {
	var mu sync.Mutex
	var manifests []*telemetry.Manifest
	_, err := Soak(SoakConfig{
		Workers: 2, Iters: 2, Seed: 42,
		Submit: func(m *telemetry.Manifest) error {
			mu.Lock()
			manifests = append(manifests, m)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) == 0 {
		t.Fatal("no manifests submitted")
	}
	for _, m := range manifests {
		if m.Perf == nil {
			t.Fatalf("%s manifest missing perf section", m.Command)
		}
		if m.Stats != nil && m.Perf.Steps != m.Stats.Steps {
			t.Errorf("%s: perf steps %d != stats steps %d", m.Command, m.Perf.Steps, m.Stats.Steps)
		}
		if len(m.Perf.Phases) == 0 {
			t.Errorf("%s: perf section has no phases", m.Command)
		}
	}
}

// TestRunEnergyCasesDeterministic: two deterministic runs of every
// smoke-tier case encode byte-identical manifests, each carrying a
// populated spaa-energy/v1 section.
func TestRunEnergyCasesDeterministic(t *testing.T) {
	for _, c := range CasesForTier("smoke") {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			encode := func() []byte {
				man, err := RunCase(c, true)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := man.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := encode(), encode()
			if !bytes.Equal(a, b) {
				t.Fatalf("deterministic energy manifests differ:\n%s\n%s", a, b)
			}
			man, err := telemetry.ReadManifest(bytes.NewReader(a))
			if err != nil {
				t.Fatal(err)
			}
			r := man.Energy
			if r == nil || r.Schema != energy.Schema {
				t.Fatalf("manifest carries no energy section: %+v", man)
			}
			if r.Spikes == 0 || r.Deliveries == 0 || r.Steps == 0 {
				t.Errorf("meter saw no engine events: %+v", r)
			}
			if r.ClassicOps == 0 || r.ClassicMilliPJ == 0 {
				t.Errorf("classic comparator not counted: %+v", r)
			}
			ref := r.PlatformRow(energy.ReferencePlatform)
			if ref == nil || ref.AdvantageMilli <= 1000 {
				t.Errorf("reference advantage not > 1x: %+v", ref)
			}
			if sp2 := r.PlatformRow("SpiNNaker 2"); sp2 == nil || sp2.SpikingMilliPJ != 0 || sp2.AdvantageMilli != 0 {
				t.Errorf("unpublished platform row not zero: %+v", sp2)
			}
		})
	}
}

// TestRenderEnergyTable renders every smoke-tier case: unpublished
// platforms as "-", and no advantage — not even a CPU win below 1× — as
// the "0.0x" division artifact. A case name longer than the column's 18
// characters widens it, so every row still lines up with the header.
func TestRenderEnergyTable(t *testing.T) {
	cases := CasesForTier("smoke")
	var mans []*telemetry.Manifest
	for _, c := range cases {
		man, err := RunCase(c, true)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man)
	}
	out := RenderEnergyTable(mans)
	if !strings.Contains(out, "SpiNNaker 2") {
		t.Errorf("unpublished platform column missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(cases)+1 {
		t.Fatalf("want header + %d rows, got:\n%s", len(cases), out)
	}
	for i, c := range cases {
		row := strings.Fields(lines[i+1])
		if row[0] != c.Name {
			t.Errorf("row %d is %q, want case %s", i, row[0], c.Name)
		}
		if row[len(row)-1] != "-" {
			t.Errorf("%s: unpublished SpiNNaker 2 column not '-': %q", c.Name, lines[i+1])
		}
		for _, f := range row {
			if f == "0.0x" {
				t.Errorf("%s: advantage rendered as the 0.0x division artifact: %q", c.Name, lines[i+1])
			}
		}
	}
	if !strings.Contains(out, "x") {
		t.Errorf("no advantage figures rendered:\n%s", out)
	}

	long := &telemetry.Manifest{Command: "bench:sssp_scalefree_100k"} // 19 characters
	lines = strings.Split(strings.TrimSuffix(RenderEnergyTable(append(mans, long)), "\n"), "\n")
	for _, l := range lines[1:] {
		if got, want := utf8.RuneCountInString(l), utf8.RuneCountInString(lines[0]); got != want {
			t.Errorf("row %q is %d characters, header %d:\n%s", l, got, want, strings.Join(lines, "\n"))
		}
	}
}

// TestEnergySection pins the report's E20 contract: every Table 3
// platform appears, unpublished ones as "-" — never an advantage of 0
// divided through a row.
func TestEnergySection(t *testing.T) {
	out := EnergySection(6)
	for _, name := range energy.PlatformNames() {
		if !strings.Contains(out, "| "+name+" |") {
			t.Errorf("platform %q missing from section:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "| SpiNNaker 2 | - | - |") {
		t.Errorf("unpublished platform not rendered as '-':\n%s", out)
	}
	if strings.Contains(out, "0.0x") || strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("division artifact in section:\n%s", out)
	}
	if !strings.Contains(out, "µJ") {
		t.Errorf("no joule figures rendered:\n%s", out)
	}
}

// TestSoakCarriesEnergy: the engine workloads' soak manifests carry an
// energy section and the report aggregates J/query.
func TestSoakCarriesEnergy(t *testing.T) {
	var mu_manifests []*telemetry.Manifest
	var muLock = make(chan struct{}, 1)
	muLock <- struct{}{}
	rep, err := Soak(SoakConfig{
		Workers: 2, Iters: 4, Seed: 99, Mix: []string{"sssp", "fleet", "congest"},
		Deterministic: true,
		Submit: func(m *telemetry.Manifest) error {
			<-muLock
			mu_manifests = append(mu_manifests, m)
			muLock <- struct{}{}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyRuns == 0 || rep.SpikingMilliPJ == 0 || rep.ClassicMilliPJ == 0 {
		t.Fatalf("no energy aggregated: %+v", rep)
	}
	if rep.SpikingJoulesPerQuery() <= 0 || rep.ClassicJoulesPerQuery() <= 0 {
		t.Errorf("J/query aggregates zero: %v / %v", rep.SpikingJoulesPerQuery(), rep.ClassicJoulesPerQuery())
	}
	if rep.ClassicJoulesPerQuery() <= rep.SpikingJoulesPerQuery() {
		t.Errorf("classic J/query %v not above spiking %v", rep.ClassicJoulesPerQuery(), rep.SpikingJoulesPerQuery())
	}
	var withEnergy, congestRuns int64
	for _, m := range mu_manifests {
		if m.Energy != nil {
			withEnergy++
			if m.Energy.ClassicOps == 0 {
				t.Errorf("metered manifest missing classic ops: %+v", m.Energy)
			}
		}
		if m.Command == "congest" {
			congestRuns++
			if m.Energy != nil {
				t.Error("congest run (no engine half) carries an energy section")
			}
		}
	}
	if withEnergy != rep.EnergyRuns {
		t.Errorf("report counts %d energy runs, manifests carry %d", rep.EnergyRuns, withEnergy)
	}
}
