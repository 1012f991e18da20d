package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

func BenchmarkSpikingSSSP(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := graph.RandomGnm(n, 4*n, graph.Uniform(16), int64(n), true)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, _ := SSSP(g, 0, -1)
				if r.Stats.Spikes == 0 {
					b.Fatal("no spikes")
				}
			}
		})
	}
}

func BenchmarkKHopTTLMessageLevel(b *testing.B) {
	g := graph.RandomGnm(1024, 4096, graph.Uniform(8), 1, true)
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var bc int64
			for i := 0; i < b.N; i++ {
				bc = KHopTTL(g, 0, -1, k).Broadcasts
			}
			b.ReportMetric(float64(bc), "broadcasts")
		})
	}
}

func BenchmarkKHopPolyMessageLevel(b *testing.B) {
	g := graph.RandomGnm(1024, 4096, graph.Uniform(8), 1, true)
	for i := 0; i < b.N; i++ {
		if KHopPoly(g, 0, 16).Rounds == 0 {
			b.Fatal("no rounds")
		}
	}
}

func BenchmarkApproxKHopAlgorithm(b *testing.B) {
	g := graph.RandomGnm(256, 1024, graph.Uniform(16), 3, true)
	for i := 0; i < b.N; i++ {
		r := ApproxKHop(g, 0, 8, 0)
		if r.Scales == 0 {
			b.Fatal("no scales")
		}
	}
}

func BenchmarkCompileTTLVariants(b *testing.B) {
	g := graph.RandomGnm(10, 30, graph.Uniform(4), 5, true)
	b.Run("wired-or", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ct := CompileKHopTTL(g, 0, 4)
			ct.Run()
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ct := CompileKHopTTLFast(g, 0, 4)
			ct.Run()
		}
	})
}

func BenchmarkLatchSSSP(b *testing.B) {
	g := graph.RandomGnm(256, 1024, graph.Uniform(40), 7, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := SSSPWithLatches(g, 0)
		if r.Neurons == 0 {
			b.Fatal("no network")
		}
	}
}

// BenchmarkSSSPBuildRun times the two phases of a solve at the sizes of
// the perfbench solve workloads: random_100k is the build-heavy
// solve_random graph (n=100k, m=400k, U=8), wide_20k the queue-heavy
// solve_wide_delay graph (n=20k, m=60k, U=65536). build is BuildSSSP
// alone, rerun a warm Run of one compiled network (Reset plus the run),
// and build+run one fresh BuildSSSP + Run, the perfbench op.
func BenchmarkSSSPBuildRun(b *testing.B) {
	for _, c := range []struct {
		name string
		n, m int
		u    int64
	}{
		{"random_100k", 100_000, 400_000, 8},
		{"wide_20k", 20_000, 60_000, 65536},
	} {
		g := graph.RandomGnm(c.n, c.m, graph.Uniform(c.u), 1, true)
		g.MaxDeg() // build the graph's own index outside the measurement
		b.Run(c.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchNet = BuildSSSP(g)
			}
		})
		b.Run(c.name+"/rerun", func(b *testing.B) {
			sn := BuildSSSP(g)
			benchRun(b, sn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRun(b, sn)
			}
		})
		b.Run(c.name+"/build+run", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRun(b, BuildSSSP(g))
			}
		})
	}
}

// benchNet keeps BuildSSSP's result live so the build is not optimized
// away.
var benchNet *SSSPNetwork

func benchRun(b *testing.B, sn *SSSPNetwork) {
	r, err := sn.Run(0, -1)
	if err != nil || r.Stats.Spikes == 0 {
		b.Fatalf("run: %v, stats %+v", err, r.Stats)
	}
}
