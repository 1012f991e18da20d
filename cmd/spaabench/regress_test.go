package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// captureOutput runs fn with stdout and stderr redirected into one
// buffer and returns what it wrote.
func captureOutput(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.Bytes()
	}()
	defer func() {
		os.Stdout, os.Stderr = stdout, stderr
	}()
	fn()
	w.Close()
	out := <-done
	r.Close()
	return string(out)
}

// TestRegress is the baseline gate's table test: the fast committed
// baselines re-run clean; a perturbation in each manifest section
// (stats, perf, energy tariff) exits 1 and names the drifted field; a
// baseline no runner can re-run exits 1 without a panic.
func TestRegress(t *testing.T) {
	committed := func(file string) func(*testing.T) string {
		return func(*testing.T) string { return filepath.Join("..", "..", file) }
	}
	perturbed := func(file string, edit func(*telemetry.Manifest)) func(*testing.T) string {
		return func(t *testing.T) string {
			man, err := readManifestFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Fatal(err)
			}
			edit(man)
			path := filepath.Join(t.TempDir(), file)
			if err := man.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	bare := func(command string) func(*testing.T) string {
		return func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "BENCH_bare.json")
			if err := telemetry.NewManifest("spaabench", command).WriteFile(path); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	for _, c := range []struct {
		name string
		path func(*testing.T) string
		exit int
		want string // substring of the output
	}{
		{"BENCH_snn_sssp", committed("BENCH_snn_sssp.json"), 0, "ok   "},
		{"BENCH_sssp_random_256", committed("BENCH_sssp_random_256.json"), 0, "ok   "},
		{"BENCH_khop_compiled_24", committed("BENCH_khop_compiled_24.json"), 0, "ok   "},
		{"BENCH_table1_48", committed("BENCH_table1_48.json"), 0, "ok   "},
		{"stats.spikes x2", perturbed("BENCH_snn_sssp.json", func(m *telemetry.Manifest) {
			m.Stats.Spikes *= 2
		}), 1, "stats.spikes:"},
		// BENCH_snn_sssp.json is the one baseline that gates the per-step
		// series a telemetry.Recorder writes.
		{"deliveries_per_step value +1", perturbed("BENCH_snn_sssp.json", func(m *telemetry.Manifest) {
			for i := range m.Series {
				if m.Series[i].Name == "deliveries_per_step" {
					m.Series[i].Values[0]++
				}
			}
		}), 1, "series.deliveries_per_step.sum:"},
		{"perf.deliveries_per_step_milli +1", perturbed("BENCH_sssp_random_256.json", func(m *telemetry.Manifest) {
			m.Perf.DeliveriesPerStepMilli++
		}), 1, "perf.deliveries_per_step_milli:"},
		{"Loihi delivery_millipj x1.1", perturbed("BENCH_sssp_random_256.json", func(m *telemetry.Manifest) {
			row := m.Energy.PlatformRow("Loihi")
			row.DeliveryMilliPJ = row.DeliveryMilliPJ * 11 / 10
		}), 1, "energy.platforms.Loihi.delivery_millipj:"},
		{"missing baseline file", func(t *testing.T) string {
			return filepath.Join(t.TempDir(), "BENCH_sssp_random_256.json")
		}, 1, "no such file"},
		{"bench:ghost", bare("bench:ghost"), 1, `unknown bench case "ghost"`},
		// A command of no registry is refused, not mistaken for a case.
		{"perf:ghost", bare("perf:ghost"), 1, `cannot re-run command "perf:ghost"`},
		{"energy:ghost", bare("energy:ghost"), 1, `cannot re-run command "energy:ghost"`},
		{"unknown command", bare("raster"), 1, `cannot re-run command "raster"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := c.path(t)
			var code int
			out := captureOutput(t, func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("regress %s panicked: %v", path, r)
					}
				}()
				code = realMain([]string{"regress", path})
			})
			if code != c.exit {
				t.Errorf("regress %s exit %d, want %d; output:\n%s", path, code, c.exit, out)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("regress %s output lacks %q:\n%s", path, c.want, out)
			}
		})
	}
}
