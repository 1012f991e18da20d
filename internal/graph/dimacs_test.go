package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	g := RandomGnm(20, 60, Uniform(9), 13, true)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, "test graph\nsecond line"); err != nil {
		t.Fatal(err)
	}
	h, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip n=%d m=%d", h.N(), h.M())
	}
	for i := range g.Edges() {
		if g.Edge(i) != h.Edge(i) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestDIMACSParsing(t *testing.T) {
	in := `c road network
c two comments
p sp 3 2
a 1 2 10
a 2 3 20
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed %v", g)
	}
	if e := g.Edge(0); e.From != 0 || e.To != 1 || e.Len != 10 {
		t.Fatalf("edge 0 = %+v (1-based conversion broken)", e)
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                             // no problem line
		"a 1 2 3\n",                    // arc before problem
		"p xx 2 1\na 1 2 3\n",          // wrong problem kind
		"p sp 2 1\np sp 2 1\n",         // duplicate problem line
		"p sp 2 1\na 0 2 3\n",          // vertex underflow
		"p sp 2 1\na 1 3 3\n",          // vertex overflow
		"p sp 2 1\na 1 2 -3\n",         // negative length
		"p sp 2 1\n",                   // missing arcs
		"p sp 2 1\na 1 2 3\na 2 1 3\n", // too many arcs
		"p sp 2 1\nq zzz\n",            // unknown line
		"p sp -1 0\n",                  // negative n
		"p sp 1099511627776 0\n",       // n beyond the int32 index range
		"p sp 2 1099511627776\n",       // m beyond the int32 index range
		"p sp 2 2000000000\n",          // huge declared m, no arc lines
	}
	for i, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d accepted: %q", i, in)
		}
	}
}
