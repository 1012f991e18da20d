package service

import "testing"

// BenchmarkExactRung times one fault-free sssp query through Execute at
// the service's largest graph size. "hit" repeats one graph, which the
// netlist pool holds; "miss" cycles over three graphs with two workers,
// so every query generates its graph and recompiles a pooled netlist.
func BenchmarkExactRung(b *testing.B) {
	for _, c := range []struct {
		name   string
		graphs int64
	}{{"hit", 1}, {"miss", 3}} {
		b.Run(c.name, func(b *testing.B) {
			s := newTestService(Config{Workers: 2})
			q := Query{Workload: "sssp", N: 4096, M: 4 * 4096, U: 8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.GraphSeed = int64(i) % c.graphs
				if resp := s.Execute(q, 0); resp.Mode != ModeExact {
					b.Fatalf("graph %d served %s, want exact", q.GraphSeed, resp.Mode)
				}
			}
		})
	}
}
