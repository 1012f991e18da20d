package snn

import (
	"strings"
	"testing"
)

// countingProbe is a minimal StepProbe for engine-level tests (the full
// aggregating implementation lives in internal/telemetry).
type countingProbe struct {
	steps, spikes, deliveries int64
	maxQueue                  int64
}

func (p *countingProbe) OnStep(t int64, spikes, deliveries, active, queueDepth int) {
	p.steps++
	p.spikes += int64(spikes)
	p.deliveries += int64(deliveries)
	if q := int64(queueDepth); q > p.maxQueue {
		p.maxQueue = q
	}
}

// lossyInjector drops every third delivery and jitters the rest by
// 0-3 steps, deterministically in the endpoint ids.
type lossyInjector struct{}

func (lossyInjector) Prepare(*Network) {}

func (lossyInjector) FilterDelivery(t int64, from, to int32, w float64, d int64) (float64, int64, bool) {
	return w, d + int64(to%4), (from+to)%3 == 0
}

func (lossyInjector) FilterFire(int64, int32, bool) bool { return true }

func (lossyInjector) PerturbVoltage(int64, int32) float64 { return 0 }

// TestProbeSeesEveryStep pins the invariant every per-run total in the
// repo relies on: OnStep's call count, the sums of its spikes and
// deliveries, and the max of its queueDepth equal Result.Stats. Perf,
// energy and trace totals are therefore read from Stats after the run
// instead of being recounted by a step probe.
func TestProbeSeesEveryStep(t *testing.T) {
	cases := []struct {
		name string
		// run drives a network with p attached and returns the Result of
		// the run whose Stats p must match.
		run func(t *testing.T, p StepProbe) Result
	}{
		{"wavefront", func(t *testing.T, p StepProbe) Result {
			net := buildWavefront(128, 512, 11)
			net.SetProbe(p)
			return net.Run(1 << 30)
		}},
		{"delay chain with silent steps", func(t *testing.T, p StepProbe) Result {
			net, _ := chain(10)
			net.SetProbe(p)
			return net.Run(100)
		}},
		{"injector drops and jitters", func(t *testing.T, p StepProbe) Result {
			pristine := buildWavefront(256, 1024, 5).Run(1 << 30)
			net := buildWavefront(256, 1024, 5)
			net.SetInjector(lossyInjector{})
			net.SetProbe(p)
			r := net.Run(1 << 30)
			if r.Stats == pristine.Stats {
				t.Fatal("injector left the run unchanged")
			}
			return r
		}},
		{"two successive runs", func(t *testing.T, p StepProbe) Result {
			net := buildWavefront(128, 512, 7)
			net.SetProbe(p)
			if r := net.Run(20); r.Quiescent {
				t.Fatal("first run drained the network; the case needs a cut-off")
			}
			return net.Run(1 << 30)
		}},
		{"run after reset", func(t *testing.T, p StepProbe) Result {
			net := buildWavefront(128, 512, 9)
			net.Run(1 << 30)
			net.Reset()
			net.SetProbe(p)
			net.InduceSpike(3, 2)
			return net.Run(1 << 30)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &countingProbe{}
			st := c.run(t, p).Stats
			if st.Steps == 0 || st.Deliveries == 0 {
				t.Fatalf("degenerate case: %+v", st)
			}
			got := Stats{Steps: p.steps, Spikes: p.spikes, Deliveries: p.deliveries,
				MaxQueueDepth: p.maxQueue, SilentStepsSkipped: st.SilentStepsSkipped}
			if got != st {
				t.Fatalf("probe totals %+v, Result.Stats %+v", got, st)
			}
		})
	}
}

func TestStatsQueueDepthAndSilentSkips(t *testing.T) {
	// A three-neuron chain with delay-10 synapses: the engine processes
	// exactly 3 steps (t=0,10,20) and skips the 18 silent ones between.
	net := NewNetwork(Config{})
	a := net.AddNeuron(Gate(1))
	b := net.AddNeuron(Gate(1))
	c := net.AddNeuron(Gate(1))
	net.Connect(a, b, 1, 10)
	net.Connect(b, c, 1, 10)
	net.InduceSpike(a, 0)
	net.Run(100)
	st := net.TotalStats()
	if st.Steps != 3 {
		t.Fatalf("steps %d", st.Steps)
	}
	if st.SilentStepsSkipped != 18 {
		t.Fatalf("silent skips %d, want 18", st.SilentStepsSkipped)
	}
	// Queue high-water: at most one delivery is ever in flight.
	if st.MaxQueueDepth != 1 {
		t.Fatalf("max queue depth %d, want 1", st.MaxQueueDepth)
	}

	// Reset clears the new counters too.
	net.Reset()
	if got := net.TotalStats(); got != (Stats{}) {
		t.Fatalf("stats after reset: %+v", got)
	}
	// A silent gap before the first event counts as skipped.
	net.InduceSpike(a, 5)
	net.Run(100)
	if got := net.TotalStats().SilentStepsSkipped; got != 5+18 {
		t.Fatalf("silent skips after reset %d, want 23", got)
	}
}

func TestMaxQueueDepthCountsFanout(t *testing.T) {
	// A hub spiking into 50 targets schedules 50 deliveries at once.
	net := NewNetwork(Config{})
	hub := net.AddNeuron(Gate(1))
	for i := 0; i < 50; i++ {
		v := net.AddNeuron(Gate(1))
		net.Connect(hub, v, 1, int64(1+i%7))
	}
	net.InduceSpike(hub, 0)
	net.Run(100)
	if got := net.TotalStats().MaxQueueDepth; got != 50 {
		t.Fatalf("max queue depth %d, want 50", got)
	}
}

func TestRenderRasterTensMarks(t *testing.T) {
	n := NewNetwork(Config{Record: true})
	a := n.AddNeuron(Gate(1))
	n.InduceSpike(a, 0)
	n.Run(40)
	out := n.RenderRaster([]int{a}, nil, 0, 35)
	header := strings.Split(out, "\n")[0]
	for _, tick := range []string{"t=0", "10", "20", "30"} {
		if !strings.Contains(header, tick) {
			t.Fatalf("header %q missing tick %q", header, tick)
		}
	}
	// Each tick must start in the column of its time step: the label
	// column width is len("n0") = 2, plus one separator space.
	if idx := strings.Index(header, "10"); idx != 2+1+10 {
		t.Fatalf("tick 10 at column %d of %q", idx, header)
	}
	if idx := strings.Index(header, "30"); idx != 2+1+30 {
		t.Fatalf("tick 30 at column %d of %q", idx, header)
	}

	// Short ranges keep the t=from label and gain no spurious ticks.
	short := n.RenderRaster([]int{a}, nil, 3, 7)
	h := strings.Split(short, "\n")[0]
	if !strings.Contains(h, "t=3") || strings.Contains(h, "10") {
		t.Fatalf("short header %q", h)
	}
	// A tick whose column would collide with the previous label is dropped
	// rather than corrupted: from=8 puts "t=8" at columns 0-2, colliding
	// with the tick for 10 (column 2); 20 (column 12) still lands.
	collide := n.RenderRaster([]int{a}, nil, 8, 28)
	h = strings.Split(collide, "\n")[0]
	if !strings.Contains(h, "t=8") || !strings.Contains(h, "20") {
		t.Fatalf("collision header %q", h)
	}
	if strings.Contains(h, "10") {
		t.Fatalf("collision header kept overlapping tick: %q", h)
	}
}
