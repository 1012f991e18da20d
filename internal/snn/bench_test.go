package snn

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// buildWavefront constructs a random delay-coded relay network of n
// fire-once neurons, the SSSP workload shape.
func buildWavefront(n, m int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork(Config{})
	for i := 0; i < n; i++ {
		net.AddNeuron(Integrator(1))
	}
	indeg := make([]int, n)
	type e struct {
		u, v int
		d    int64
	}
	edges := make([]e, 0, m)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, e{u, v, int64(rng.Intn(16) + 1)})
		indeg[v]++
	}
	for i := 0; i < n; i++ {
		net.Connect(i, i, -float64(indeg[i]+1), 1)
	}
	for _, ed := range edges {
		net.Connect(ed.u, ed.v, 1, ed.d)
	}
	net.InduceSpike(0, 0)
	return net
}

func BenchmarkEngineWavefront(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := buildWavefront(n, 4*n, int64(n))
				b.StartTimer()
				net.Run(1 << 30)
			}
		})
	}
}

func BenchmarkEngineDeliveryThroughput(b *testing.B) {
	// A dense oscillator: k latch neurons all feeding each other, firing
	// every step — measures raw delivery processing.
	const k = 64
	net := NewNetwork(Config{})
	for i := 0; i < k; i++ {
		net.AddNeuron(Gate(1))
	}
	for i := 0; i < k; i++ {
		net.Connect(i, (i+1)%k, 1, 1)
		net.Connect(i, (i+7)%k, 1, 1)
	}
	net.InduceSpike(0, 0)
	b.ResetTimer()
	var t int64
	for i := 0; i < b.N; i++ {
		t += 64
		net.Run(t)
	}
	st := net.TotalStats()
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "deliveries/op")
}

// BenchmarkEngineSparseWideDelay is the event queue's worst case: a
// chain of 4000 neurons whose delays, 60000 + (i·7919 mod 5000), fill a
// 65536-slot ring with a single event in flight, so finding each next
// step scans the occupancy bitmap across most of the ring.
func BenchmarkEngineSparseWideDelay(b *testing.B) {
	const nn = 4000
	net := NewNetwork(Config{})
	for i := 0; i < nn; i++ {
		net.AddNeuron(Gate(1))
	}
	for i := 0; i+1 < nn; i++ {
		net.Connect(i, i+1, 1, 60000+int64(i*7919%5000))
	}
	run := func() {
		net.Reset()
		net.InduceSpike(0, 0)
		net.Run(1 << 40)
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if s := net.TotalStats(); s.Spikes != nn {
		b.Fatalf("chain fired %d of %d neurons", s.Spikes, nn)
	}
}

func BenchmarkEngineVsDense(b *testing.B) {
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := buildWavefront(256, 1024, 7)
			b.StartTimer()
			net.Run(1 << 20)
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := buildWavefront(256, 1024, 7)
			b.StartTimer()
			net.DenseRun(4096)
		}
	})
}

// BenchmarkEngineProbeOverhead guards the telemetry hook's cost contract:
// with a nil probe the step loop pays only a branch (the nil case must
// match the seed engine's numbers), and even an attached counting probe
// adds no per-step allocations.
func BenchmarkEngineProbeOverhead(b *testing.B) {
	run := func(b *testing.B, probe StepProbe) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := buildWavefront(1024, 4096, 42)
			net.SetProbe(probe)
			b.StartTimer()
			net.Run(1 << 30)
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("counting", func(b *testing.B) { run(b, &countingProbe{}) })
}

// BenchmarkEngineFlightOverhead guards the provenance hook's cost
// contract alongside BenchmarkEngineProbeOverhead: with no flight probe
// attached ("off") the step loop pays only a nil check and must match the
// nil-probe fast path; "on" shows the opt-in cost of full causal capture
// (per-delivery delay metadata plus antecedent grouping).
func BenchmarkEngineFlightOverhead(b *testing.B) {
	run := func(b *testing.B, probe FlightProbe) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := buildWavefront(1024, 4096, 42)
			net.SetFlightProbe(probe)
			b.StartTimer()
			net.Run(1 << 30)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, &discardFlightProbe{}) })
}

// discardFlightProbe consumes OnSpike calls without retaining anything.
type discardFlightProbe struct{ events int64 }

func (p *discardFlightProbe) OnSpike(t int64, neuron int32, forced bool, vBefore, vAfter float64, ants []Antecedent) {
	p.events++
}

func BenchmarkNetlistRoundTrip(b *testing.B) {
	net := buildWavefront(512, 2048, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, net); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadNetlist(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
