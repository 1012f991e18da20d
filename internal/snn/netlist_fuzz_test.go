package snn

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzNetlistRoundTrip checks two properties on arbitrary byte inputs:
// ReadNetlist never panics (malformed input must surface as an error, per
// the parse-then-validate pipeline), and any input it accepts round-trips
// canonically — Write(Read(input)) is a fixed point byte-for-byte.
func FuzzNetlistRoundTrip(f *testing.F) {
	// Seed with a representative valid netlist...
	n := NewNetwork(Config{Record: true})
	n.AddNeuron(Gate(1))
	n.AddNeuron(Integrator(2))
	n.AddNeuron(Neuron{Reset: -0.5, Threshold: 1.5, Decay: 0.25})
	n.Connect(0, 1, 1, 1)
	n.Connect(1, 2, -0.75, 3)
	n.Connect(2, 0, 2, 2)
	n.InduceSpike(0, 0)
	n.InduceSpike(2, 5)
	n.SetTerminal(2)
	var seed bytes.Buffer
	if err := WriteNetlist(&seed, n); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// ...plus malformed and adversarial corpus entries.
	f.Add([]byte("snn v1 gte 0\nneurons 1\n0 1 1\nsynapses 1\n0 0 1 0\ninduced 0\nterminals 0 any\n"))
	f.Add([]byte("snn v1 strict 1\nneurons 0\nsynapses 0\ninduced 0\nterminals 0 all\n"))
	// Delays at the edge of the long-delay side table, out of source order.
	f.Add([]byte("snn v1 gte 0\nneurons 2\n0 1 1\n0 1 1\nsynapses 5\n1 0 1 1073741824\n0 1 1 1073741823\n" +
		"0 1 -1 2147483647\n0 0 2 4611686018427387907\n1 1 1 1073741825\ninduced 1\n0 0\nterminals 0 any\n"))
	// Delays at MaxDelay (accepted) and near math.MaxInt64 (rejected as
	// delay-max: t+d would overflow).
	f.Add([]byte("snn v1 gte 1\nneurons 2\n0 1 1\n0 1 1\nsynapses 2\n0 1 1 2305843009213693951\n" +
		"1 0 1 2305843009213693951\ninduced 1\n5 0\nterminals 0 any\n"))
	f.Add([]byte("snn v1 gte 1\nneurons 2\n0 1 1\n0 1 1\nsynapses 1\n0 1 1 9223372036854775806\n" +
		"induced 1\n5 0\nterminals 1 any\n1\n"))
	f.Add([]byte("snn v1 gte 0\nneurons 2\n0 1 1\n0 NaN 2\nsynapses 1\n5 -1 Inf -9\ninduced 1\n-1 7\nterminals 1 any\n3\n"))
	f.Add([]byte("# comment\n\nsnn v2 bogus\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := ReadNetlist(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		var first bytes.Buffer
		if err := WriteNetlist(&first, net); err != nil {
			t.Fatalf("WriteNetlist on accepted network: %v", err)
		}
		// The canonical form must itself be accepted and reproduce itself.
		net2, err := ReadNetlist(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written netlist: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteNetlist(&second, net2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("netlist round-trip is not a fixed point:\n-- first --\n%s\n-- second --\n%s",
				first.String(), second.String())
		}
		if vs := Validate(net2); HasErrors(vs) {
			t.Fatalf("ReadNetlist accepted a network Validate rejects: %v", vs)
		}
	})
}

// TestNetlistCanonicalInducedOrder pins the canonical serialization order:
// ascending time, then ascending neuron id, regardless of induce order.
func TestNetlistCanonicalInducedOrder(t *testing.T) {
	n := NewNetwork(Config{})
	for i := 0; i < 3; i++ {
		n.AddNeuron(Gate(1))
	}
	n.InduceSpike(2, 7)
	n.InduceSpike(0, 7)
	n.InduceSpike(1, 2)
	var b strings.Builder
	if err := WriteNetlist(&b, n); err != nil {
		t.Fatal(err)
	}
	want := "induced 3\n2 1\n7 0\n7 2\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("induced section not canonical; want substring %q in:\n%s", want, b.String())
	}
}
