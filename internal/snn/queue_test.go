package snn

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzNetwork builds a random netlist from seed: mixed decay regimes,
// inhibitory weights, delays 1..300 and, one synapse in 32, a delay at
// the edge of the long-delay side table (2^30-1, 2^30, 2^30+1), at
// 2^31-1 or near 2^62. With extra it appends further
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
			d := int64(r.Intn(300) + 1)
			if r.Intn(32) == 0 {
				d = []int64{longBase - 1, longBase, longBase + 1, math.MaxInt32, 1<<62 + int64(r.Intn(1024))}[r.Intn(5)]
			}
			s := stagedSynapse{from: int32(r.Intn(nn)), to: int32(r.Intn(nn)), weight: w, delay: d}
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

// TestTimedOutRunKeepsTime: a Run whose deadline lies before the current
// time times out without rewinding it, so an input at an earlier time is
// still rejected and spike trains stay sorted.
func TestTimedOutRunKeepsTime(t *testing.T) {
	net := NewNetwork(Config{Record: true})
	a := net.AddNeuron(Gate(1))
	b := net.AddNeuron(Gate(1))
	net.Connect(a, b, 1, 3)
	net.InduceSpike(a, 10)
	if res := net.Run(20); !res.Quiescent || res.Now != 13 {
		t.Fatalf("first run: %+v, want quiescent at 13", res)
	}
	net.InduceSpike(a, 30)
	if res := net.Run(5); !res.TimedOut || res.Now != 13 || net.Now() != 13 {
		t.Fatalf("run to 5 from 13: %+v (Now %d), want a timeout at 13", res, net.Now())
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "induce at past time") {
				t.Fatalf("InduceSpike(a, 6) at time 13: recovered %v, want the past-time panic", r)
			}
		}()
		net.InduceSpike(a, 6)
	}()
	if res := net.Run(100); !res.Quiescent || res.Now != 33 {
		t.Fatalf("last run: %+v, want quiescent at 33", res)
	}
	if got := net.Spikes(a); !slices.Equal(got, []int64{10, 30}) {
		t.Fatalf("a's train %v, want [10 30]", got)
	}
}

// TestInduceAtProcessedStepPanics: an input at Now() is rejected once
// the step at Now() has run, and accepted while it has not. Before the
// check, the second input below reopened step 0, so a fired twice at
// time 0 and b twice at time 1.
func TestInduceAtProcessedStepPanics(t *testing.T) {
	net := NewNetwork(Config{Record: true})
	a := net.AddNeuron(Gate(1))
	b := net.AddNeuron(Gate(1))
	net.Connect(a, b, 1, 1)
	net.InduceSpike(a, 0)
	net.Run(0)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "already processed") {
				t.Fatalf("InduceSpike(a, 0) after step 0 ran: recovered %v, want the processed-step panic", r)
			}
		}()
		net.InduceSpike(a, 0)
	}()
	if res := net.Run(5); !res.Quiescent || res.Now != 1 || res.Stats.Steps != 2 {
		t.Fatalf("run: %+v, want quiescent at 1 after 2 steps", res)
	}
	if got := net.Spikes(a); !slices.Equal(got, []int64{0}) {
		t.Fatalf("a's train %v, want [0]", got)
	}

	// A timed-out run leaves Now() at a step it has not processed, so an
	// input there is still on time.
	net.Reset()
	net.InduceSpike(a, 4)
	if res := net.Run(2); !res.TimedOut || net.Now() != 2 {
		t.Fatalf("run to 2: %+v, want a timeout at 2", res)
	}
	net.InduceSpike(b, 2)
	if res := net.Run(10); !res.Quiescent || res.Now != 5 {
		t.Fatalf("run after inducing at Now: %+v, want quiescent at 5", res)
	}
	if got := net.Spikes(b); !slices.Equal(got, []int64{2, 5}) {
		t.Fatalf("b's train %v, want [2 5]", got)
	}
}

// FuzzRunSlicesVsOneShot is the oracle for the queue across Run calls.
// Two copies of a fuzzNetwork, with extra synapses whose delays widen the
// ring up to ringCap or reach past it into the far map, see the same
// inputs. One runs once to a fixed horizon. The other runs in random
// Run(maxTime) slices, some of them timing out, and receives some of its
// induced spikes between slices, at Now() when that step has not run yet,
// just after Now() or ringCap and more ahead of it; the one-shot copy gets
// those same calls up front. Spike
// trains, first spikes and causes, the final time, outcome and counters
// must be equal. MaxQueueDepth is exempt: the one-shot copy holds the
// later inputs from the start.
func FuzzRunSlicesVsOneShot(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, strict bool) {
		rule := FireGTE
		if strict {
			rule = FireStrict
		}
		const horizon = 2*ringCap + 4096
		r := rand.New(rand.NewSource(seed))
		build := func() *Network {
			net, _ := fuzzNetwork(seed, rule, false)
			wr := rand.New(rand.NewSource(seed))
			for s := wr.Intn(4); s > 0; s-- {
				d := 1 + int64(wr.Intn(ringCap-1)) // widens the ring
				if wr.Intn(2) == 0 {
					d = ringCap + int64(wr.Intn(2048)) // the far map
				}
				net.Connect(wr.Intn(net.N()), wr.Intn(net.N()), float64(wr.Intn(7)-3), d)
			}
			return net
		}
		type input struct {
			i int
			t int64
		}
		var inputs []input
		induce := func(net *Network, at int64) {
			i := r.Intn(net.N())
			net.InduceSpike(i, at)
			inputs = append(inputs, input{i, at})
		}

		sliced := build()
		for s := r.Intn(3) + 1; s > 0; s-- {
			induce(sliced, int64(r.Intn(16)))
		}
		var res Result
		for cut := r.Intn(6); ; cut-- {
			maxTime := int64(horizon)
			if cut > 0 {
				maxTime = int64(r.Intn(horizon))
			}
			res = sliced.Run(maxTime)
			if cut <= 0 {
				break
			}
			// An input at Now itself is on time only while that step has
			// not run (a timed-out slice); otherwise inputs go after Now.
			now := sliced.Now()
			if now > sliced.lastStep && r.Intn(2) == 0 {
				induce(sliced, now)
			}
			for s := r.Intn(3); s > 0; s-- {
				ahead := int64(1 + r.Intn(64))
				if r.Intn(2) == 0 {
					ahead += ringCap
				}
				induce(sliced, now+ahead)
			}
		}

		oneShot := build()
		for _, in := range inputs {
			oneShot.InduceSpike(in.i, in.t)
		}
		want := oneShot.Run(horizon)

		ws, gs := want.Stats, res.Stats
		ws.MaxQueueDepth, gs.MaxQueueDepth = 0, 0
		if ws != gs || want.Now != res.Now || want.Quiescent != res.Quiescent || want.TimedOut != res.TimedOut {
			t.Fatalf("seed %d: sliced run %+v (stats %+v), one-shot %+v (stats %+v)", seed, res, gs, want, ws)
		}
		for i := 0; i < oneShot.N(); i++ {
			if !slices.Equal(sliced.Spikes(i), oneShot.Spikes(i)) {
				t.Fatalf("seed %d: neuron %d train %v, one-shot %v", seed, i, sliced.Spikes(i), oneShot.Spikes(i))
			}
			if sliced.FirstSpike(i) != oneShot.FirstSpike(i) || sliced.FirstCause(i) != oneShot.FirstCause(i) {
				t.Fatalf("seed %d: neuron %d first spike %d cause %d, one-shot %d cause %d", seed, i,
					sliced.FirstSpike(i), sliced.FirstCause(i), oneShot.FirstSpike(i), oneShot.FirstCause(i))
			}
		}
	})
}
