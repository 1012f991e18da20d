package metrics

import (
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/telemetry"
)

func energyReport() *energy.Report {
	return energy.NewReport(40, 2500, 320, 12, 100, 5000, energy.Tariffs())
}

func TestBridgeObserveEnergy(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)
	r := energyReport()
	b.Fold(&telemetry.Manifest{Energy: r})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	body := w.String()
	if got := scrapeValue(t, body, MetricEnergyClassic); got != r.ClassicMilliPJ {
		t.Errorf("classic total = %d, want %d", got, r.ClassicMilliPJ)
	}
	ref := r.PlatformRow(energy.ReferencePlatform)
	if got := scrapeValue(t, body, MetricEnergySpiking+`{platform="`+energy.ReferencePlatform+`"}`); got != ref.SpikingMilliPJ {
		t.Errorf("reference spiking total = %d, want %d", got, ref.SpikingMilliPJ)
	}
	if got := scrapeValue(t, body, MetricEnergyAdvantage+`{platform="`+energy.ReferencePlatform+`"}`); got != ref.AdvantageMilli {
		t.Errorf("reference advantage = %d, want %d", got, ref.AdvantageMilli)
	}
	// Unpublished-tariff platforms scrape as zero, the wire spelling of "-".
	if got := scrapeValue(t, body, MetricEnergySpiking+`{platform="SpiNNaker 2"}`); got != 0 {
		t.Errorf("unpublished platform spiking total = %d, want 0", got)
	}

	// The advantage gauge is a high-water mark: a later low-advantage run
	// must not lower it.
	low := energy.NewReport(1, 1, 0, 0, 1, 1, energy.Tariffs())
	b.Fold(&telemetry.Manifest{Energy: low})
	w.Reset()
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, w.String(), MetricEnergyAdvantage+`{platform="`+energy.ReferencePlatform+`"}`); got != ref.AdvantageMilli {
		t.Errorf("advantage high-water dropped to %d after a low-advantage run", got)
	}

	var nilBridge *Bridge
	nilBridge.Fold(&telemetry.Manifest{Energy: energyReport()}) // must not panic
	b.Fold(&telemetry.Manifest{})                               // must not panic
}

// TestBridgeObserveEnergyClampsPlatform: unknown platform names in
// remote manifests are dropped instead of minting new label values.
func TestBridgeObserveEnergyClampsPlatform(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg)
	r := energyReport()
	r.Platforms = append(r.Platforms, energy.PlatformEnergy{
		Platform: "totally-unbounded-platform-42", SpikingMilliPJ: 7, AdvantageMilli: 9,
	})
	b.Fold(&telemetry.Manifest{Energy: r})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(w.String(), "totally-unbounded-platform-42") {
		t.Error("unbounded platform name leaked into the exposition")
	}
}

// TestServerIngestEnergySection: a pushed manifest carrying an energy
// section populates the energy families and the run summary's headline
// fields.
func TestServerIngestEnergySection(t *testing.T) {
	srv := NewServer(NewRegistry())
	m := testManifest(10, 30, 4)
	m.Energy = energyReport()
	sum, err := srv.Ingest(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ClassicMilliPJ != m.Energy.ClassicMilliPJ {
		t.Errorf("summary classic = %d, want %d", sum.ClassicMilliPJ, m.Energy.ClassicMilliPJ)
	}
	if sum.SpikingMilliPJ != m.Energy.ReferenceMilliPJ() {
		t.Errorf("summary spiking = %d, want %d", sum.SpikingMilliPJ, m.Energy.ReferenceMilliPJ())
	}
	if sum.EnergyAdvantageMilli != m.Energy.BestAdvantageMilli() {
		t.Errorf("summary advantage = %d, want %d", sum.EnergyAdvantageMilli, m.Energy.BestAdvantageMilli())
	}
	var w strings.Builder
	if err := srv.Registry().WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, w.String(), MetricEnergyClassic); got != m.Energy.ClassicMilliPJ {
		t.Errorf("scraped classic total = %d, want %d", got, m.Energy.ClassicMilliPJ)
	}
}
