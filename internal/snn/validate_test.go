package snn

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func validNet() *Network {
	n := NewNetwork(Config{})
	n.AddNeuron(Gate(1))
	n.AddNeuron(Integrator(2))
	n.Connect(0, 1, 1, 1)
	n.InduceSpike(0, 0)
	n.SetTerminal(1)
	return n
}

// syn0 returns neuron 0's first synapse in the compacted CSR layout.
func syn0(n *Network) *synapse {
	n.compact()
	return &n.syn[n.off[0]]
}

// ownParams gives neuron i a parameter-table entry of its own and
// returns it, so a test can corrupt that neuron's parameters without
// touching the neurons that share its tuple.
func ownParams(n *Network, i int) *Neuron {
	n.params = append(n.params, n.Params(i))
	n.cells[i].param = int32(len(n.params) - 1)
	return &n.params[len(n.params)-1]
}

func kinds(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

func TestValidateCleanNetwork(t *testing.T) {
	if vs := Validate(validNet()); len(vs) != 0 {
		t.Fatalf("valid network reported violations: %v", vs)
	}
}

func TestValidateCatchesInvariantBreaks(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Network)
		kind   string
	}{
		{"delay-zero", func(n *Network) { syn0(n).delay = 0 }, "delay-min"},
		{"delay-negative", func(n *Network) { syn0(n).delay = -7 }, "delay-min"},
		{"decay-high", func(n *Network) { ownParams(n, 0).Decay = 1.5 }, "decay-range"},
		{"decay-negative", func(n *Network) { ownParams(n, 1).Decay = -0.25 }, "decay-range"},
		{"reset-at-threshold", func(n *Network) { p := ownParams(n, 0); p.Reset = p.Threshold }, "self-fire"},
		{"reset-above-threshold", func(n *Network) { ownParams(n, 0).Reset = 9 }, "self-fire"},
		{"endpoint-out-of-range", func(n *Network) { syn0(n).to = 99 }, "endpoint"},
		{"nan-decay", func(n *Network) { ownParams(n, 0).Decay = math.NaN() }, "nonfinite"},
		{"inf-threshold", func(n *Network) { ownParams(n, 1).Threshold = math.Inf(1) }, "nonfinite"},
		{"nan-weight", func(n *Network) { syn0(n).weight = math.NaN() }, "nonfinite"},
		{"terminal-out-of-range", func(n *Network) { n.terminals[0] = 42 }, "terminal-range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := validNet()
			c.mutate(n)
			vs := Validate(n)
			if !HasErrors(vs) {
				t.Fatalf("expected error-level violations, got %v", vs)
			}
			if kinds(vs)[c.kind] == 0 {
				t.Fatalf("expected a %q violation, got %v", c.kind, vs)
			}
		})
	}
}

func TestValidateStrictRuleAllowsResetEqualThreshold(t *testing.T) {
	n := NewNetwork(Config{Rule: FireStrict})
	n.AddNeuron(Neuron{Reset: 1, Threshold: 1, Decay: 1})
	if vs := Validate(n); len(vs) != 0 {
		t.Fatalf("reset == threshold is legal under the strict rule, got %v", vs)
	}
	ownParams(n, 0).Reset = 2
	if vs := Validate(n); kinds(vs)["self-fire"] == 0 {
		t.Fatalf("reset > threshold must self-fire under strict rule, got %v", vs)
	}
}

func TestValidateWarnsUnreachableTerminal(t *testing.T) {
	n := NewNetwork(Config{})
	n.AddNeuron(Gate(1))
	n.SetTerminal(0) // no synapse in, no induced spike
	vs := Validate(n)
	if HasErrors(vs) {
		t.Fatalf("unreachable terminal must be a warning, got %v", vs)
	}
	if kinds(vs)["terminal-unreachable"] != 1 {
		t.Fatalf("expected terminal-unreachable warning, got %v", vs)
	}
	// Scheduling an induced spike on it makes the terminal live.
	n.InduceSpike(0, 3)
	if vs := Validate(n); len(vs) != 0 {
		t.Fatalf("induced terminal should be reachable, got %v", vs)
	}
}

// netlist constructs a minimal netlist string with the given neuron and
// synapse lines spliced in.
func netlist(neuronLines, synapseLines []string) string {
	var b strings.Builder
	b.WriteString("snn v1 gte 0\n")
	b.WriteString("neurons " + strconv.Itoa(len(neuronLines)) + "\n")
	for _, l := range neuronLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("synapses " + strconv.Itoa(len(synapseLines)) + "\n")
	for _, l := range synapseLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("induced 0\nterminals 0 any\n")
	return b.String()
}

func TestReadNetlistRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"delay-zero", netlist([]string{"0 1 1", "0 1 1"}, []string{"0 1 1 0"})},
		{"decay-out-of-range", netlist([]string{"0 1 7"}, nil)},
		{"reset-at-threshold", netlist([]string{"1 1 1"}, nil)},
		{"endpoint-to", netlist([]string{"0 1 1"}, []string{"0 5 1 1"})},
		{"endpoint-from", netlist([]string{"0 1 1"}, []string{"5 0 1 1"})},
		{"nan-threshold", netlist([]string{"0 NaN 1"}, nil)},
		{"negative-induced-time", "snn v1 gte 0\nneurons 1\n0 1 1\nsynapses 0\ninduced 1\n-4 0\nterminals 0 any\n"},
		{"terminal-out-of-range", "snn v1 gte 0\nneurons 1\n0 1 1\nsynapses 0\ninduced 0\nterminals 1 any\n9\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadNetlist(strings.NewReader(c.src)); err == nil {
				t.Fatalf("ReadNetlist accepted invalid netlist:\n%s", c.src)
			}
		})
	}
}

func TestLintNetlistReportsAllViolations(t *testing.T) {
	src := netlist(
		[]string{"0 1 2", "1 1 1"}, // decay 2 out of range; reset==threshold
		[]string{"0 9 1 0"},        // endpoint out of range AND delay 0
	)
	info, vs, err := LintNetlist(strings.NewReader(src))
	if err != nil {
		t.Fatalf("LintNetlist: %v", err)
	}
	if info.Neurons != 2 || info.Synapses != 1 {
		t.Fatalf("bad summary %+v", info)
	}
	k := kinds(vs)
	for _, want := range []string{"decay-range", "self-fire", "endpoint", "delay-min"} {
		if k[want] == 0 {
			t.Errorf("missing %q violation in %v", want, vs)
		}
	}
	if !HasErrors(vs) {
		t.Error("expected error-level violations")
	}
}

func TestLintNetlistCleanRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteNetlist(&b, validNet()); err != nil {
		t.Fatal(err)
	}
	info, vs, err := LintNetlist(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations on a freshly written netlist: %v", vs)
	}
	if info.Neurons != 2 || info.Synapses != 1 || info.Induced != 1 || info.Terminals != 1 {
		t.Fatalf("bad summary %+v", info)
	}
}

// TestDelayMax: a delay past MaxDelay overflows the delivery time. With
// no upper bound, Connect(a, b, 1, math.MaxInt64), InduceSpike(a, 5) and
// Run(math.MaxInt64) went quiescent after 2 steps with Now and b's train
// at -9223372036854775804. Now Connect and Place refuse such a delay,
// Validate reports it as delay-max, ReadNetlist rejects a netlist that
// carries it, and MaxDelay itself still runs to its true time.
func TestDelayMax(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "maximum programmable delay") {
				t.Fatalf("%s: panic %v, want the maximum-delay message", name, r)
			}
		}()
		f()
	}
	net := NewNetwork(Config{Record: true})
	a, b := net.AddNeuron(Gate(1)), net.AddNeuron(Gate(1))
	mustPanic("Connect", func() { net.Connect(a, b, 1, math.MaxInt64) })
	mustPanic("Connect", func() { net.Connect(a, b, 1, MaxDelay+1) })
	mustPanic("Place", func() { sizedNet(1).Place(0, 1, 1, MaxDelay+1) })
	if net.Synapses() != 0 {
		t.Fatalf("a refused Connect left %d synapses", net.Synapses())
	}

	net.Connect(a, b, 1, MaxDelay)
	net.InduceSpike(a, 5)
	res := net.Run(math.MaxInt64)
	if want := int64(5 + MaxDelay); !res.Quiescent || res.Now != want || res.Stats.Steps != 2 ||
		!slices.Equal(net.Spikes(b), []int64{want}) {
		t.Fatalf("MaxDelay run: %+v, b fired %v; want quiescent at %d after 2 steps", res, net.Spikes(b), want)
	}

	corrupt := validNet()
	corrupt.Connect(1, 0, 1, MaxDelay) // one long-table entry
	corrupt.compact()
	corrupt.long[0] = math.MaxInt64
	if vs := Validate(corrupt); kinds(vs)["delay-max"] != 1 {
		t.Fatalf("Validate on a math.MaxInt64 delay: %v, want one delay-max", vs)
	}

	for _, d := range []string{"9223372036854775807", "2305843009213693952"} {
		src := netlist([]string{"0 1 1", "0 1 1"}, []string{"0 1 1 " + d})
		if _, err := ReadNetlist(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "maximum programmable delay") {
			t.Fatalf("ReadNetlist with delay %s: %v, want a maximum-delay error", d, err)
		}
		if _, vs, err := LintNetlist(strings.NewReader(src)); err != nil || kinds(vs)["delay-max"] != 1 {
			t.Fatalf("LintNetlist with delay %s: %v %v, want one delay-max", d, vs, err)
		}
	}
	if _, err := ReadNetlist(strings.NewReader(netlist([]string{"0 1 1", "0 1 1"}, []string{"0 1 1 2305843009213693951"}))); err != nil {
		t.Fatalf("ReadNetlist with delay MaxDelay: %v", err)
	}
}
