package faults_test

import (
	"reflect"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

// reuseGraph decodes a small multigraph from data: data[0] picks n in
// [1,16], and each following byte triple (u, v, w) adds the edge
// u%n -> v%n with length w%16 + 1. Self-loops and parallel edges are kept.
func reuseGraph(data []byte) *graph.Graph {
	g := graph.New(int(data[0]%16) + 1)
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		g.AddEdge(int(b[0])%g.N(), int(b[1])%g.N(), int64(b[2]%16)+1)
	}
	return g
}

// reuseModel decodes a fault model from one byte: 0 is the ideal model,
// any other value turns on at least one fault class (its low three bits
// set the drop rate, each higher bit one more class) and seeds the
// campaign with the byte itself.
func reuseModel(b uint8) faults.Model {
	m := faults.Model{Seed: int64(b)}
	m.DropProb = float64(b&7) / 16
	if b&8 != 0 {
		m.JitterProb, m.JitterMax = 0.3, 2
	}
	if b&16 != 0 {
		m.StuckFireProb = 0.1
	}
	if b&32 != 0 {
		m.StuckSilentProb = 0.1
	}
	if b&64 != 0 {
		m.UpsetProb, m.UpsetMag = 0.2, 0.9
	}
	if b&128 != 0 {
		m.WeightNoise = 0.5
	}
	return m
}

// FuzzResetEquivalence is the oracle for netlist reuse: one compiled
// network runs a fuzzed sequence of queries, each op four bytes (src,
// dst, fault model, budget), and every run must equal the same run on a
// fresh core.BuildSSSP compile — in Dist, Pred, SpikeTime, TimedOut,
// Stats, the injector's Counters and the returned error. dst decodes to
// -1 or a vertex, the model byte to the ideal model (0) or a faulted one,
// the budget byte to no cap (0) or a cutting cap in [1,32].
func FuzzResetEquivalence(f *testing.F) {
	g5 := []byte{5, 0, 1, 2, 1, 2, 0, 0, 2, 5, 2, 3, 1, 3, 4, 7, 1, 4, 2}
	// A different dst and a different injector on reuse.
	f.Add(g5, []byte{0, 4, 0, 0, 0, 3, 9, 0, 0, 0, 77, 0})
	// A halted run followed by a full one.
	f.Add(g5, []byte{0, 3, 0, 0, 0, 0, 0, 0})
	// A timed-out run followed by a clean one.
	f.Add(g5, []byte{0, 5, 0, 2, 0, 5, 0, 0, 1, 0, 0, 0})
	// Stuck-firing trains (spurious induced spikes) then the ideal model.
	f.Add(g5, []byte{2, 0, 16, 0, 2, 0, 0, 0, 2, 1, 255, 3, 2, 1, 0, 0})
	f.Add([]byte{0}, []byte{0, 0, 0, 0, 0, 1, 5, 1})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		if len(data) == 0 || len(ops) < 4 || len(ops) > 64 {
			return
		}
		g := reuseGraph(data)
		n := g.N()
		sn := core.BuildSSSP(g)
		for i, op := 0, ops; len(op) >= 4; i, op = i+1, op[4:] {
			src, dst := int(op[0])%n, int(op[1])%(n+1)-1
			model := reuseModel(op[2])
			budget := int64(0)
			if op[3] != 0 {
				budget = int64(op[3]%32) + 1
			}
			got := faults.Run(sn, src, dst, model, budget)
			want := faults.Run(core.BuildSSSP(g), src, dst, model, budget)
			if !reflect.DeepEqual(got.Res, want.Res) {
				t.Fatalf("op %d (src %d dst %d model %s budget %d): reused network returned %+v, fresh build %+v",
					i, src, dst, model, budget, got.Res, want.Res)
			}
			if got.Counters != want.Counters {
				t.Fatalf("op %d (src %d dst %d model %s budget %d): counters %+v, fresh build %+v",
					i, src, dst, model, budget, got.Counters, want.Counters)
			}
			if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
				t.Fatalf("op %d (src %d dst %d model %s budget %d): error %v, fresh build %v",
					i, src, dst, model, budget, got.Err, want.Err)
			}
		}
	})
}

// TestNetworkFormsMatchGraphForms: the graph-taking entry points are the
// network-taking ones on a fresh compile, and a network shared across
// NMR, SelfCheck and Run calls gives each of them a fresh compile's answer.
func TestNetworkFormsMatchGraphForms(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(8), 3, true)
	model := faults.Model{DropProb: 0.02, JitterProb: 0.1, JitterMax: 2, Seed: 5}
	sn := core.BuildSSSP(g)
	for i := 0; i < 2; i++ { // the second pass runs on a network the first left dirty
		if got, want := faults.NMR(sn, 0, model, 3), faults.NMRSSSP(g, 0, model, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: NMR on a shared network %+v, fresh %+v", i, got, want)
		}
		if got, want := faults.SelfCheck(sn, classic.Dijkstra(g, 0).Dist, 0, model, 3), faults.SSSPWithSelfCheck(g, 0, model, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: SelfCheck on a shared network %+v, fresh %+v", i, got, want)
		}
		if got, want := faults.Run(sn, 7, 30, model, 0), faults.Run(core.BuildSSSP(g), 7, 30, model, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: Run on a shared network %+v, fresh %+v", i, got, want)
		}
	}
}

// TestReuseAllocs: the network-taking fault forms re-run one compile, so
// after a warm-up their allocations do not depend on the graph size and
// cover only the results — a replica or attempt that compiled again
// would add the build's allocations to every row.
func TestReuseAllocs(t *testing.T) {
	const k = 3
	for _, c := range []struct {
		name string
		want float64
		run  func(sn *core.SSSPNetwork)
	}{
		// The NMRResult, its Dist, the replica table and the vote
		// scratch; each replica's SSSPResult with its Dist and Pred; and
		// the stream hash behind each derived replica seed.
		{"NMR zero model", 4 + 3*k + (k - 1), func(sn *core.SSSPNetwork) { faults.NMR(sn, 0, faults.Model{}, k) }},
		{"Run zero model", 3, func(sn *core.SSSPNetwork) { faults.Run(sn, 0, -1, faults.Model{}, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(n, m int) float64 {
				sn := core.BuildSSSP(graph.RandomGnm(n, m, graph.Uniform(8), 1, true))
				c.run(sn)
				return testing.AllocsPerRun(10, func() { c.run(sn) })
			}
			small, large := allocs(256, 1024), allocs(4096, 16384)
			if small != c.want || large != c.want {
				t.Fatalf("allocs: n=256 %v, n=4096 %v; want %v", small, large, c.want)
			}
		})
	}
}
