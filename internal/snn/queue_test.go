package snn

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// fuzzNetwork builds a random netlist from seed: mixed decay regimes,
// inhibitory weights, delays 1..300. With extra it appends further
// synapses after the base ones, the shape a Connect issued after a Run
// produces once it is compacted. It also returns every Connect call in
// issue order, sources interleaved.
func fuzzNetwork(seed int64, rule FireRule, extra bool) (*Network, []stagedSynapse) {
	r := rand.New(rand.NewSource(seed))
	net := NewNetwork(Config{Rule: rule, Record: true})
	nn := r.Intn(12) + 2
	for i := 0; i < nn; i++ {
		th := float64(r.Intn(3) + 1)
		switch r.Intn(3) {
		case 0:
			net.AddNeuron(Gate(th))
		case 1:
			net.AddNeuron(Integrator(th))
		default:
			net.AddNeuron(Neuron{Reset: 0, Threshold: th, Decay: 0.5})
		}
	}
	var calls []stagedSynapse
	connect := func(k int) {
		for s := 0; s < k; s++ {
			w := float64(r.Intn(7)) - 3
			s := stagedSynapse{from: int32(r.Intn(nn)), to: int32(r.Intn(nn)), weight: w, delay: int64(r.Intn(300) + 1)}
			net.Connect(int(s.from), int(s.to), s.weight, s.delay)
			calls = append(calls, s)
		}
	}
	connect(r.Intn(4 * nn))
	if extra {
		connect(r.Intn(nn) + 1)
	}
	return net, calls
}

// fuzzInduce schedules induced spikes both inside the ring window
// (t < 16) and beyond its largest possible width (t >= 600 > 512), which
// exercises the far map.
func fuzzInduce(net *Network, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for s := r.Intn(4) + 1; s > 0; s-- {
		net.InduceSpike(r.Intn(net.N()), int64(r.Intn(16)))
	}
	for s := r.Intn(3); s > 0; s-- {
		net.InduceSpike(r.Intn(net.N()), int64(600+r.Intn(200)))
	}
}

// sameTrains reports the first neuron whose event-engine spike train
// differs from the dense raster, or -1.
func sameTrains(ev *Network, raster [][]int) int {
	dense := make([][]int64, ev.N())
	for t, fired := range raster {
		for _, i := range fired {
			dense[i] = append(dense[i], int64(t))
		}
	}
	for i := range dense {
		got := ev.Spikes(i)
		if len(got) != len(dense[i]) {
			return i
		}
		for k := range got {
			if got[k] != dense[i][k] {
				return i
			}
		}
	}
	return -1
}

// FuzzEngineVsDense is the differential oracle for the event engine's
// netlist layout and queue: Run must match DenseRun spike for spike on a
// fresh network, and again on the same network after Reset plus a
// Connect issued after the first run (the re-compaction path), with
// induced spikes near the origin and far past the ring window.
func FuzzEngineVsDense(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, strict bool) {
		rule := FireGTE
		if strict {
			rule = FireStrict
		}
		const horizon = 1200

		ev, _ := fuzzNetwork(seed, rule, false)
		fuzzInduce(ev, seed)
		ev.Run(horizon)
		dense, _ := fuzzNetwork(seed, rule, false)
		fuzzInduce(dense, seed)
		if i := sameTrains(ev, dense.DenseRun(horizon)); i >= 0 {
			t.Fatalf("seed %d rule %v: neuron %d diverges on the first run", seed, rule, i)
		}

		// Re-run after Reset with synapses added after the first run.
		ev.Reset()
		base := ev.Synapses()
		_, calls := fuzzNetwork(seed, rule, true)
		for _, s := range calls[base:] {
			ev.Connect(int(s.from), int(s.to), s.weight, s.delay)
		}
		fuzzInduce(ev, seed+1)
		ev.Run(horizon)
		dense, _ = fuzzNetwork(seed, rule, true)
		fuzzInduce(dense, seed+1)
		if i := sameTrains(ev, dense.DenseRun(horizon)); i >= 0 {
			t.Fatalf("seed %d rule %v: neuron %d diverges after Reset and re-compaction", seed, rule, i)
		}
	})
}

// TestEngineSteadyStateZeroAlloc pins the pooled queue: once a network
// has run, Reset + InduceSpike + Run of the same network allocates
// nothing, including events parked in the far map and, with a flight
// probe attached, the per-delivery delay metadata.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	for _, flight := range []FlightProbe{nil, &discardFlightProbe{}} {
		const nn = 256
		r := rand.New(rand.NewSource(7))
		net := NewNetwork(Config{})
		for i := 0; i < nn; i++ {
			net.AddNeuron(Integrator(1))
		}
		for i := 0; i < nn; i++ {
			net.Connect(i, i, -float64(nn), 1)
			for k := 0; k < 4; k++ {
				net.Connect(i, r.Intn(nn), 1, int64(r.Intn(40)+1))
			}
		}
		net.Connect(0, nn-1, 1, ringCap+5) // beyond the ring: the far map
		net.SetFlightProbe(flight)
		run := func() {
			net.Reset()
			net.InduceSpike(0, 0)
			net.InduceSpike(1, 3*ringCap) // far-future input
			net.Run(4 * ringCap)
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("flight probe %v: steady-state Reset+InduceSpike+Run allocated %.1f times per run", flight != nil, allocs)
		}
		if s := net.TotalStats(); s.Spikes < nn/2 {
			t.Fatalf("workload too small to pin anything: %+v", s)
		}
	}
}

// TestConnectAfterRunResizesRing checks that a Connect with a longer
// delay after a run re-slots events already pending in the old ring.
func TestConnectAfterRunResizesRing(t *testing.T) {
	net := NewNetwork(Config{Record: true})
	a := net.AddNeuron(Gate(1))
	b := net.AddNeuron(Gate(1))
	c := net.AddNeuron(Gate(1))
	net.Connect(a, b, 1, 3)
	net.InduceSpike(a, 0)
	net.InduceSpike(c, 10)
	if res := net.Run(1); !res.TimedOut {
		t.Fatalf("expected a timeout with events pending, got %+v", res)
	}
	ring := len(net.ring)
	net.Connect(b, c, 1, 1000)
	net.InduceSpike(a, 2)
	net.Run(3000)
	if len(net.ring) <= ring {
		t.Fatalf("ring did not grow: %d -> %d", ring, len(net.ring))
	}
	want := map[int][]int64{a: {0, 2}, b: {3, 5}, c: {10, 1003, 1005}}
	for i, w := range want {
		got := net.Spikes(i)
		if len(got) != len(w) {
			t.Fatalf("neuron %d spikes %v, want %v", i, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("neuron %d spikes %v, want %v", i, got, w)
			}
		}
	}
}

// TestSourceOrderConnectSkipsStaging: Connects issued in source order
// write the CSR layout directly, without staging, and give every neuron
// the same fan-out in the same order as the same calls with sources
// interleaved. Trailing neurons without synapses get empty rows.
func TestSourceOrderConnectSkipsStaging(t *testing.T) {
	interleaved, calls := fuzzNetwork(3, FireGTE, true)
	sorted := slices.Clone(calls)
	slices.SortStableFunc(sorted, func(a, b stagedSynapse) int { return cmp.Compare(a.from, b.from) })
	if slices.Equal(sorted, calls) {
		t.Fatal("seed gives calls already in source order; pick another")
	}
	direct := NewNetwork(Config{})
	for i := 0; i < interleaved.N(); i++ {
		direct.AddNeuron(interleaved.Params(i))
	}
	direct.AddNeuron(Gate(1)) // a trailing neuron with no synapses
	for _, s := range sorted {
		direct.Connect(int(s.from), int(s.to), s.weight, s.delay)
	}
	if len(direct.staged) != 0 || direct.Synapses() != len(calls) {
		t.Fatalf("source-order build staged %d of %d synapses", len(direct.staged), direct.Synapses())
	}
	for i := 0; i < interleaved.N(); i++ {
		if got, want := direct.OutSynapses(i), interleaved.OutSynapses(i); !slices.Equal(got, want) {
			t.Fatalf("neuron %d fan-out %v, want %v", i, got, want)
		}
	}
	if got := direct.OutSynapses(interleaved.N()); len(got) != 0 {
		t.Fatalf("trailing neuron has fan-out %v", got)
	}
}
