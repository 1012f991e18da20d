package snn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestCellSize pins the packed engine state at one 64-byte cache line.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 64 {
		t.Fatalf("cell is %d bytes, want 64", got)
	}
}

// TestSynapseAndBucketSize pins the other two per-event structures: a
// fan-out row entry is 16 bytes (long delays live in the side table) and
// a queue bucket is one slice header (induced spikes and flight-probe
// delays live beside the pool).
func TestSynapseAndBucketSize(t *testing.T) {
	if got := unsafe.Sizeof(synapse{}); got != 16 {
		t.Errorf("synapse is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(bucket{}); got != 24 {
		t.Errorf("bucket is %d bytes, want 24", got)
	}
}

// TestLongDelays: a delay of 2^30 or more is stored as a reference into
// a side table, one entry per run of equal delays. Whichever way the
// synapses enter the layout (source-order Connect, staged Connect,
// SizeRows and Place, or a re-compaction after Reset that moves their
// row), OutSynapses, the netlist round trip and DenseRun see the true
// delays, and Run delivers at them.
func TestLongDelays(t *testing.T) {
	delays := []int64{longBase - 1, longBase, longBase + 1, math.MaxInt32, math.MaxInt32 + 1, MaxDelay, MaxDelay, 7, longBase}
	var want []SynapseInfo
	for i, d := range delays {
		want = append(want, SynapseInfo{To: 2 + i, Weight: 1, Delay: d})
	}
	fresh := func() *Network {
		net := NewNetwork(Config{Record: true})
		for range 2 + len(delays) {
			net.AddNeuron(Gate(1))
		}
		return net
	}
	connect := func(net *Network) {
		for _, s := range want {
			net.Connect(1, s.To, s.Weight, s.Delay)
		}
	}
	builds := []struct {
		name  string
		build func() *Network
	}{
		{"source order", func() *Network {
			net := fresh()
			connect(net)
			return net
		}},
		{"staged", func() *Network {
			net := fresh()
			net.Connect(len(delays)+1, 0, -1, 2) // later source first: row 1 is staged
			connect(net)
			return net
		}},
		{"sized rows", func() *Network {
			net := fresh()
			net.Grow(0, len(want))
			net.SizeRows(func(i int) int {
				if i == 1 {
					return len(want)
				}
				return 0
			})
			for _, s := range want {
				net.Place(1, s.To, s.Weight, s.Delay)
			}
			return net
		}},
		{"re-compacted after Reset", func() *Network {
			net := fresh()
			net.Connect(0, 2, -1, 3)
			connect(net)
			net.InduceSpike(1, 0)
			net.Run(10)
			net.Reset()
			net.Connect(0, 1, -1, 1) // staged: row 1 moves up one slot
			return net
		}},
	}
	for _, b := range builds {
		net := b.build()
		if got := net.OutSynapses(1); !slices.Equal(got, want) {
			t.Fatalf("%s: fan-out %v, want %v", b.name, got, want)
		}
		if len(net.long) != 6 {
			t.Fatalf("%s: side table %v, want 6 entries", b.name, net.long)
		}
		var text bytes.Buffer
		if err := WriteNetlist(&text, net); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), " 2305843009213693951\n") {
			t.Fatalf("%s: netlist lacks the 2^61-1 delay:\n%s", b.name, text.String())
		}
		back, err := ReadNetlist(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.OutSynapses(1); !slices.Equal(got, want) {
			t.Fatalf("%s: round-tripped fan-out %v, want %v", b.name, got, want)
		}

		const horizon = 100
		dense := b.build()
		dense.InduceSpike(1, 0)
		net.InduceSpike(1, 0)
		if res := net.Run(horizon); !res.TimedOut {
			t.Fatalf("%s: run to %d: %+v, want a timeout with the long deliveries pending", b.name, horizon, res)
		}
		if i := sameTrains(net, dense.DenseRun(horizon)); i >= 0 {
			t.Fatalf("%s: neuron %d diverges from DenseRun", b.name, i)
		}
		if res := net.Run(math.MaxInt64); !res.Quiescent {
			t.Fatalf("%s: run to the end: %+v, want quiescent", b.name, res)
		}
		for _, s := range want {
			if got := net.FirstSpike(s.To); got != s.Delay {
				t.Fatalf("%s: neuron %d first fired at %d, want %d", b.name, s.To, got, s.Delay)
			}
		}
	}
}

// TestParamsInterned: Params returns every AddNeuron argument bit for bit
// through the interned table, -0 kept apart from +0, and WriteNetlist
// prints exactly the arguments. DenseRun and the netlist round trip read
// the same table, so the engine-vs-dense fuzz cannot see an interning bug;
// this test compares against the arguments themselves.
func TestParamsInterned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []Neuron{
		Integrator(1),
		{Reset: negZero, Threshold: 1, Decay: 0},
		{Reset: 0, Threshold: 1, Decay: negZero},
		{Reset: negZero, Threshold: 1, Decay: 1},
		Gate(1),
		Gate(2),
		{Reset: -0.5, Threshold: 0.25, Decay: 0.125},
		{Reset: -0.5, Threshold: 0.25, Decay: 0.1},
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := NewNetwork(Config{})
		var args []Neuron
		for len(args) < 200 {
			p := pool[r.Intn(len(pool))]
			for k := r.Intn(4) + 1; k > 0; k-- { // runs of repeats between switches
				args = append(args, p)
				net.AddNeuron(p)
			}
		}
		var want strings.Builder
		fmt.Fprintf(&want, "snn v1 gte 0\nneurons %d\n", len(args))
		for i, p := range args {
			if got := net.Params(i); !sameBits(got, p) {
				t.Fatalf("seed %d: Params(%d) = %+v, AddNeuron got %+v", seed, i, got, p)
			}
			fmt.Fprintf(&want, "%s %s %s\n", ftoa(p.Reset), ftoa(p.Threshold), ftoa(p.Decay))
		}
		want.WriteString("synapses 0\ninduced 0\nterminals 0 any\n")
		var got bytes.Buffer
		if err := WriteNetlist(&got, net); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: netlist\n%s\nwant\n%s", seed, got.String(), want.String())
		}
		back, err := ReadNetlist(&got)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range args {
			if q := back.Params(i); !sameBits(q, p) {
				t.Fatalf("seed %d: round-tripped Params(%d) = %+v, want %+v", seed, i, q, p)
			}
		}
	}
}

// TestParamsTableSize: a run of equal tuples shares one table entry, and
// a tuple differing only in the sign of a zero gets its own.
func TestParamsTableSize(t *testing.T) {
	net := NewNetwork(Config{})
	for i := 0; i < 1000; i++ {
		net.AddNeuron(Integrator(1))
	}
	net.AddNeuron(Neuron{Reset: math.Copysign(0, -1), Threshold: 1})
	if len(net.params) != 2 {
		t.Fatalf("1000 equal tuples then a -0 reset: %d table entries, want 2", len(net.params))
	}
}

// sizedFromCalls builds a network with net's neurons whose synapses are
// placed into sized rows in the given call order.
func sizedFromCalls(net *Network, calls []stagedSynapse) *Network {
	s := NewNetwork(Config{Rule: net.Rule(), Record: true})
	s.Grow(net.N(), len(calls))
	for i := 0; i < net.N(); i++ {
		s.AddNeuron(net.Params(i))
	}
	count := make([]int, net.N())
	for _, c := range calls {
		count[c.from]++
	}
	s.SizeRows(func(i int) int { return count[i] })
	for _, c := range calls {
		s.Place(int(c.from), int(c.to), c.weight, c.delay)
	}
	return s
}

// TestSizedRowsMatchConnect: placing synapses into sized rows, sources in
// any order, gives every neuron the fan-out the same Connect calls give
// it, in the same order, and the same spike trains.
func TestSizedRowsMatchConnect(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		conn, calls := fuzzNetwork(seed, FireGTE, true)
		sized := sizedFromCalls(conn, calls)
		if sized.Synapses() != conn.Synapses() {
			t.Fatalf("seed %d: %d synapses, want %d", seed, sized.Synapses(), conn.Synapses())
		}
		for i := 0; i < conn.N(); i++ {
			if got, want := sized.OutSynapses(i), conn.OutSynapses(i); !slices.Equal(got, want) {
				t.Fatalf("seed %d: neuron %d fan-out %v, want %v", seed, i, got, want)
			}
		}
		fuzzInduce(conn, seed)
		fuzzInduce(sized, seed)
		conn.Run(1200)
		sized.Run(1200)
		for i := 0; i < conn.N(); i++ {
			if !slices.Equal(sized.Spikes(i), conn.Spikes(i)) {
				t.Fatalf("seed %d: neuron %d spikes %v, want %v", seed, i, sized.Spikes(i), conn.Spikes(i))
			}
		}
	}
}

// TestSizedRowsThenConnect: once every sized row is full, Connect adds
// synapses as usual, after the placed ones.
func TestSizedRowsThenConnect(t *testing.T) {
	net := sizedNet(2, 1)
	net.Place(1, 0, 1, 1)
	net.Place(0, 1, 1, 2)
	net.Place(0, 2, 1, 3)
	net.Connect(0, 2, -1, 4)
	net.Connect(2, 0, 1, 5)
	want := [][]SynapseInfo{
		{{To: 1, Weight: 1, Delay: 2}, {To: 2, Weight: 1, Delay: 3}, {To: 2, Weight: -1, Delay: 4}},
		{{To: 0, Weight: 1, Delay: 1}},
		{{To: 0, Weight: 1, Delay: 5}},
	}
	for i, w := range want {
		if got := net.OutSynapses(i); !slices.Equal(got, w) {
			t.Fatalf("neuron %d fan-out %v, want %v", i, got, w)
		}
	}
}

// sizedNet returns three gates with rows sized counts[i] (missing counts
// are 0).
func sizedNet(counts ...int) *Network {
	net := NewNetwork(Config{})
	for i := 0; i < 3; i++ {
		net.AddNeuron(Gate(1))
	}
	net.SizeRows(func(i int) int {
		if i < len(counts) {
			return counts[i]
		}
		return 0
	})
	return net
}

// TestSizedRowsMisuse: an overfilled row panics at the Place that
// overfills it, whatever the neighbouring rows hold; a row left short
// panics at the first Run or structural read; Connect panics while rows
// are open; and Place applies Connect's checks.
func TestSizedRowsMisuse(t *testing.T) {
	cases := []struct {
		name, want string
		f          func()
	}{
		{"overfill-next-row-empty", "overfills neuron 0", func() {
			n := sizedNet(1, 2)
			n.Place(0, 1, 1, 1)
			n.Place(0, 1, 1, 1)
		}},
		{"overfill-next-row-started", "overfills neuron 0", func() {
			n := sizedNet(1, 2)
			n.Place(1, 0, 1, 1)
			n.Place(0, 1, 1, 1)
			n.Place(0, 1, 1, 1)
		}},
		{"overfill-zero-row", "overfills neuron 1", func() {
			n := sizedNet(1, 0, 1)
			n.Place(1, 0, 1, 1)
		}},
		{"overfill-last-row", "overfills neuron 2", func() {
			n := sizedNet(1, 0, 1)
			n.Place(2, 0, 1, 1)
			n.Place(2, 0, 1, 1)
		}},
		{"place-after-full", "no open sized row", func() {
			n := sizedNet(1)
			n.Place(0, 1, 1, 1)
			n.Place(0, 1, 1, 1)
		}},
		{"place-without-layout", "no open sized row", func() {
			n := NewNetwork(Config{})
			n.AddNeuron(Gate(1))
			n.Place(0, 0, 1, 1)
		}},
		{"place-on-later-neuron", "no open sized row", func() {
			n := sizedNet(1)
			n.AddNeuron(Gate(1))
			n.Place(3, 0, 1, 1)
		}},
		{"underfill-run", "1 sized-row synapses unplaced", func() {
			n := sizedNet(1, 1)
			n.Place(1, 0, 1, 1)
			n.Run(10)
		}},
		{"underfill-read", "2 sized-row synapses unplaced", func() {
			n := sizedNet(1, 1)
			n.OutSynapses(2)
		}},
		{"underfill-validate", "1 sized-row synapses unplaced", func() {
			n := sizedNet(0, 1)
			Validate(n)
		}},
		{"connect-while-open", "Connect while 1 sized-row synapses are unplaced", func() {
			n := sizedNet(1)
			n.Connect(1, 0, 1, 1)
		}},
		{"size-after-connect", "already has synapses", func() {
			n := NewNetwork(Config{})
			n.AddNeuron(Gate(1))
			n.Connect(0, 0, 1, 1)
			n.SizeRows(func(int) int { return 1 })
		}},
		{"size-twice", "already has synapses", func() {
			n := sizedNet(1)
			n.SizeRows(func(int) int { return 1 })
		}},
		{"negative-count", "negative row size", func() { sizedNet(-1) }},
		{"place-zero-delay", "delay 0", func() { sizedNet(1).Place(0, 1, 1, 0) }},
		{"place-nan-weight", "NaN synapse weight", func() { sizedNet(1).Place(0, 1, math.NaN(), 1) }},
		{"place-out-of-range", "out of range", func() { sizedNet(1).Place(0, 3, 1, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want it to mention %q", msg, c.want)
				}
			}()
			c.f()
		})
	}
}

// buildMixed programs a random network into net: integrator neurons in
// runs of two thresholds, forward synapses in and out of source order with
// delays from 1 to past the ring cap and past longBase, and a terminal.
// Its largest delay, and so its ring, varies with seed.
func buildMixed(net *Network, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nn := 2 + r.Intn(12)
	for i := 0; i < nn; i++ {
		net.AddNeuron(Integrator(float64(1 + r.Intn(2))))
	}
	for k := r.Intn(2 * nn); k > 0; k-- {
		d := 1 + r.Int63n(int64(1)<<r.Intn(19))
		if r.Intn(8) == 0 {
			d = longBase + r.Int63n(3)
		}
		// Forward synapses only, so activity dies out.
		if from, to := r.Intn(nn), r.Intn(nn); from != to {
			net.Connect(min(from, to), max(from, to), float64(r.Intn(3)), d)
		}
	}
	net.SetTerminal(r.Intn(nn))
}

// sameNetwork fails unless got and want write the same netlist, occupy
// the same MemoryBytes and run to the same result and spike trains.
func sameNetwork(t *testing.T, name string, got, want *Network) {
	t.Helper()
	var a, b bytes.Buffer
	if err := WriteNetlist(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetlist(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: netlist\n%s\nwant\n%s", name, a.String(), b.String())
	}
	if g, w := got.MemoryBytes(), want.MemoryBytes(); g != w {
		t.Fatalf("%s: MemoryBytes %d, want %d", name, g, w)
	}
	if g, w := got.Run(1<<40), want.Run(1<<40); g != w {
		t.Fatalf("%s: run %+v, want %+v", name, g, w)
	}
	for i := 0; i < want.N(); i++ {
		if !slices.Equal(got.Spikes(i), want.Spikes(i)) {
			t.Fatalf("%s: neuron %d fired %v, want %v", name, i, got.Spikes(i), want.Spikes(i))
		}
	}
}

// TestClearBuildsFresh: a network cleared after a run and programmed
// with another topology equals one built fresh, including MemoryBytes,
// which a long-delay table or a ring left over from the first topology
// would inflate. A trimmed network re-runs as a fresh one, holding no
// queue buckets in between.
func TestClearBuildsFresh(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		used := NewNetwork(Config{Record: true})
		buildMixed(used, seed)
		used.InduceSpike(0, 0)
		used.Run(1 << 40)
		used.Clear()
		buildMixed(used, seed+1000)
		used.InduceSpike(0, 1)
		fresh := NewNetwork(Config{Record: true})
		buildMixed(fresh, seed+1000)
		fresh.InduceSpike(0, 1)
		sameNetwork(t, fmt.Sprintf("seed %d cleared", seed), used, fresh)

		used.Trim()
		if used.buckets != nil || used.slab != nil || used.ring != nil {
			t.Fatalf("seed %d: Trim kept %d buckets, %d slab, %d ring slots", seed, len(used.buckets), len(used.slab), len(used.ring))
		}
		again := NewNetwork(Config{Record: true})
		buildMixed(again, seed+1000)
		used.InduceSpike(0, 0)
		again.InduceSpike(0, 0)
		sameNetwork(t, fmt.Sprintf("seed %d trimmed", seed), used, again)
	}
}
