package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/snn"
)

// fuzzWideGraph decodes a graph as fuzzGraph does, except that the top
// two bits of each length byte shift the length left by 0, 10, 20 or 30
// bits: delays then reach past the engine's 2^17-step ring into its far
// map, and from 2^30 into its long-delay side table.
func fuzzWideGraph(data []byte) *graph.Graph {
	g := graph.New(int(data[0]%24) + 1)
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		g.AddEdge(int(b[0])%g.N(), int(b[1])%g.N(), int64(b[2]&63+1)<<(10*(b[2]>>6)))
	}
	return g
}

// netlistOf returns sn's relay network in the netlist text format.
func netlistOf(t *testing.T, sn *SSSPNetwork) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := snn.WriteNetlist(&b, sn.rn.net); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzRecompileVsFresh: a network built for g1 and run, parked or not,
// then recompiled for g2 equals BuildSSSP(g2). Both write the same
// netlist, occupy the same MemoryBytes (a long-delay table or a ring
// left from g1 would inflate it), and return the same result, in Dist,
// Pred, SpikeTime, Stats and every other field, from two sources.
func FuzzRecompileVsFresh(f *testing.F) {
	long := []byte{3, 0, 1, 0xc0, 1, 2, 0xc1, 2, 3, 0x8f, 0, 3, 0xc0}        // 2^30 and up: the side table
	wide := []byte{4, 0, 1, 0x7f, 1, 2, 0x45, 2, 3, 1, 3, 4, 0x7f}           // 2^16: a 2^17-slot ring
	small := []byte{5, 0, 1, 2, 1, 2, 3, 2, 3, 1, 3, 4, 5, 4, 5, 1, 0, 5, 9} // a 64-slot ring
	f.Add(long, small, uint8(0), uint8(1))                                   // g2 larger, side table and far map gone
	f.Add(small, long, uint8(1), uint8(0))                                   // g2 smaller, side table appears
	f.Add(wide, small, uint8(2), uint8(3))                                   // the ring shrinks
	f.Add(small, wide, uint8(3), uint8(2))                                   // the ring grows
	f.Add(long, wide, uint8(0), uint8(4))                                    // far times in both
	f.Add([]byte{23, 0, 22, 1}, []byte{0}, uint8(4), uint8(0))               // down to one relay
	f.Fuzz(func(t *testing.T, d1, d2 []byte, s1, s2 uint8) {
		if len(d1) == 0 || len(d2) == 0 {
			return
		}
		g1, g2 := fuzzWideGraph(d1), fuzzWideGraph(d2)
		sn := BuildSSSP(g1)
		if _, err := sn.Run(int(s1)%g1.N(), -1); err != nil {
			t.Fatal(err)
		}
		if s1&1 == 0 {
			sn.Park()
		}
		sn.Recompile(g2)
		fresh := BuildSSSP(g2)
		if a, b := netlistOf(t, sn), netlistOf(t, fresh); !bytes.Equal(a, b) {
			t.Fatalf("%v after %v: netlist\n%s\nfresh build\n%s", g2, g1, a, b)
		}
		if a, b := sn.MemoryBytes(), fresh.MemoryBytes(); a != b {
			t.Fatalf("%v after %v: MemoryBytes %d, fresh build %d", g2, g1, a, b)
		}
		n := g2.N()
		for _, src := range []int{int(s2) % n, (int(s2) + 1) % n} {
			got, errA := sn.Run(src, -1)
			want, errB := fresh.Run(src, -1)
			if fmt.Sprint(errA) != fmt.Sprint(errB) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v after %v, src %d: run %+v (%v), fresh build %+v (%v)", g2, g1, src, got, errA, want, errB)
			}
		}
	})
}
