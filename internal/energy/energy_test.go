package energy

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/platform"
)

func TestTariffForTable3(t *testing.T) {
	want := map[string]int64{
		"TrueNorth":   26_000,
		"Loihi":       23_600,
		"SpiNNaker 1": 7_000_000,
		"SpiNNaker 2": 0,
	}
	ts := Tariffs()
	if len(ts) != len(want) {
		t.Fatalf("Tariffs() returned %d rows, want %d", len(ts), len(want))
	}
	for _, tr := range ts {
		w, ok := want[tr.Platform]
		if !ok {
			t.Errorf("unexpected tariff platform %q", tr.Platform)
			continue
		}
		if tr.DeliveryMilliPJ != w {
			t.Errorf("%s: DeliveryMilliPJ = %d, want %d", tr.Platform, tr.DeliveryMilliPJ, w)
		}
		if tr.Unpublished() != (w == 0) {
			t.Errorf("%s: Unpublished() = %v with tariff %d", tr.Platform, tr.Unpublished(), w)
		}
	}
	if ReferenceTariff().Platform != ReferencePlatform {
		t.Errorf("ReferenceTariff() = %q, want %q", ReferenceTariff().Platform, ReferencePlatform)
	}
}

// TestCPUOpMilliPJAgreesWithEstimator pins the integral CPU op tariff to
// the float estimator it replaces data-wise: both must derive from the
// same Table 3 CPU row.
func TestCPUOpMilliPJAgreesWithEstimator(t *testing.T) {
	got := CPUOpMilliPJ()
	want := int64(math.Round(platform.CPUEnergyPerOpJoules() * 1e15))
	if got != want {
		t.Fatalf("CPUOpMilliPJ() = %d, want %d", got, want)
	}
	// 35 W / 4.3 GHz = 8.1395... nJ = 8_139_535 mpJ after rounding.
	if got != 8_139_535 {
		t.Fatalf("CPUOpMilliPJ() = %d, want 8139535 (35 W / 4.3 GHz)", got)
	}
}

// TestNilReceiversNoOp: the report lookups are nil-receiver safe, so a
// manifest without an energy section renders and folds without checks.
func TestNilReceiversNoOp(t *testing.T) {
	var r *Report
	if r.PlatformRow(ReferencePlatform) != nil || r.PhaseRow(PhaseBuild) != nil {
		t.Error("nil report returned a row")
	}
	if r.ReferenceMilliPJ() != 0 || r.BestAdvantageMilli() != 0 {
		t.Error("nil report returned nonzero energy")
	}
}

func TestReportPlatformsAndAdvantage(t *testing.T) {
	// 1000 deliveries, no load events, 2000 classic ops.
	r := NewReport(40, 1000, 0, 5, 60, 2000, Tariffs())
	if r.Schema != Schema {
		t.Fatalf("schema %q", r.Schema)
	}
	if got, want := r.ClassicMilliPJ, 2000*CPUOpMilliPJ(); got != want {
		t.Errorf("ClassicMilliPJ = %d, want %d", got, want)
	}
	loihi := r.PlatformRow("Loihi")
	if loihi == nil {
		t.Fatal("no Loihi row")
	}
	if got, want := loihi.SpikingMilliPJ, int64(1000*23_600); got != want {
		t.Errorf("Loihi SpikingMilliPJ = %d, want %d", got, want)
	}
	if got, want := loihi.AdvantageMilli, r.ClassicMilliPJ*1000/loihi.SpikingMilliPJ; got != want {
		t.Errorf("Loihi AdvantageMilli = %d, want %d", got, want)
	}
	if got := r.ReferenceMilliPJ(); got != loihi.SpikingMilliPJ {
		t.Errorf("ReferenceMilliPJ = %d, want %d", got, loihi.SpikingMilliPJ)
	}
	// SpiNNaker 2 publishes no figure: zeros, never a 0x advantage row.
	sp2 := r.PlatformRow("SpiNNaker 2")
	if sp2 == nil {
		t.Fatal("no SpiNNaker 2 row")
	}
	if sp2.SpikingMilliPJ != 0 || sp2.AdvantageMilli != 0 {
		t.Errorf("SpiNNaker 2 must carry zeros, got %+v", sp2)
	}
	if FormatAdvantage(sp2.AdvantageMilli) != "-" {
		t.Errorf("unpublished advantage renders %q, want -", FormatAdvantage(sp2.AdvantageMilli))
	}
	// TrueNorth (26 pJ) must beat Loihi's row in the best-advantage scan:
	// lower tariff wins; the scan must skip the unpublished row.
	if best := r.BestAdvantageMilli(); best != loihi.AdvantageMilli {
		tn := r.PlatformRow("TrueNorth")
		if best != tn.AdvantageMilli {
			t.Errorf("BestAdvantageMilli = %d, not a platform row value", best)
		}
	}
}

// TestReportPhases pins the per-phase attribution: build (load events),
// wavefront (spikes+deliveries), idle — priced at the reference tariff,
// summing exactly to the reference platform's spiking total.
func TestReportPhases(t *testing.T) {
	r := NewReport(40, 1000, 300, 5, 60, 2000, Tariffs())
	ref := ReferenceTariff()
	build := r.PhaseRow(PhaseBuild)
	wave := r.PhaseRow(PhaseWavefront)
	idle := r.PhaseRow(PhaseIdle)
	if build == nil || wave == nil || idle == nil {
		t.Fatalf("missing phase rows: %+v", r.Phases)
	}
	if build.Events != 300 || build.MilliPJ != 300*ref.DeliveryMilliPJ {
		t.Errorf("build phase = %+v, want 300 events at %d mpJ each", build, ref.DeliveryMilliPJ)
	}
	if wave.Events != 1040 || wave.MilliPJ != 40*ref.SpikeMilliPJ+1000*ref.DeliveryMilliPJ {
		t.Errorf("wavefront phase = %+v", wave)
	}
	if idle.Events != 5 || idle.MilliPJ != 5*ref.IdleStepMilliPJ {
		t.Errorf("idle phase = %+v", idle)
	}
	sum := build.MilliPJ + wave.MilliPJ + idle.MilliPJ
	if got := r.ReferenceMilliPJ(); got != sum {
		t.Errorf("phases sum to %d, reference spiking total is %d", sum, got)
	}
	// The load charge prices into every published platform row.
	loihi := r.PlatformRow("Loihi")
	if got, want := loihi.SpikingMilliPJ, int64((1000+300)*23_600); got != want {
		t.Errorf("Loihi SpikingMilliPJ = %d, want %d (load events charged)", got, want)
	}
}

// TestReportByteDeterminism: the section contains no wall-clock data,
// so two identical runs must encode byte-identically with no zeroing
// step at all.
func TestReportByteDeterminism(t *testing.T) {
	enc := func() []byte {
		r := NewReport(123, 4567, 11, 89, 250, 9999, Tariffs())
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(), enc()
	if !bytes.Equal(a, b) {
		t.Fatalf("energy reports differ across identical runs:\n%s\n%s", a, b)
	}
}

func TestFormatAdvantage(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "-"}, {-5, "-"}, {1, "0.001x"}, {97, "0.097x"}, {999, "0.999x"},
		{1000, "1.0x"}, {8139, "8.1x"}, {1234567, "1234.5x"},
	}
	for _, c := range cases {
		if got := FormatAdvantage(c.in); got != c.want {
			t.Errorf("FormatAdvantage(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
