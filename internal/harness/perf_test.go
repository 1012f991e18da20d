package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func smokeCase(t *testing.T) PerfCase {
	t.Helper()
	cases := PerfCasesForTier("smoke")
	if len(cases) != 1 {
		t.Fatalf("smoke tier has %d cases, want 1", len(cases))
	}
	return cases[0]
}

// TestRunPerfCaseDeterministicByteStable: two deterministic executions
// of the same case must encode byte-identical manifests — the property
// the committed BENCH_perf_*.json baselines rely on.
func TestRunPerfCaseDeterministicByteStable(t *testing.T) {
	c := smokeCase(t)
	var bufs [2]bytes.Buffer
	for i := range bufs {
		man, err := RunPerfCase(c, PerfOptions{Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := man.Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("deterministic perf manifests differ between runs")
	}
}

// TestRunPerfCaseShape: the manifest carries the perf section with the
// expected phases, the result-integrity counters, and totals matching
// the simulator stats.
func TestRunPerfCaseShape(t *testing.T) {
	c := smokeCase(t)
	man, err := RunPerfCase(c, PerfOptions{})
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
}

// TestRenderPerfTrend: the table renders one row per manifest, keyed by
// the case name, with "-" for the wall time a deterministic run zeroes.
func TestRenderPerfTrend(t *testing.T) {
	c := smokeCase(t)
	man, err := RunPerfCase(c, PerfOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	bare := telemetry.NewManifest("spaabench", "perf:ghost_case")
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
