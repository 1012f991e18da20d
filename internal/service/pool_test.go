package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// buildDetail executes q on s and returns the response with the detail
// of its exact rung's build span: "cache hit" when the netlist came from
// the pool, "sssp compile" when the query compiled it.
func buildDetail(t *testing.T, s *Service, col *trace.Collector, q Query, now int64) (*Response, string) {
	t.Helper()
	resp := s.Execute(q, now)
	tr := col.Report().FindTrace(resp.TraceID)
	if tr == nil {
		t.Fatalf("trace %q not sampled", resp.TraceID)
	}
	sp := tr.SpanByStage(trace.StageBuild)
	if sp == nil {
		return resp, ""
	}
	return resp, sp.Detail
}

// poolSize reports how many netlists s's pool holds.
func poolSize(s *Service) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return len(s.pool.idle)
}

// TestPoolConcurrentDo: four callers share two workers over three graphs
// and four sources each, in different orders, so hits, misses that
// recompile a returned netlist and two runs of the same graph at once
// all happen. Every answer is exact and equals the reference, and the
// pool never holds more netlists than there are workers.
func TestPoolConcurrentDo(t *testing.T) {
	s := New(metrics.NewRegistry(), Config{Workers: 2, Clock: NewWallClock()})
	var qs []Query
	var want [][]int64
	for g := int64(0); g < 3; g++ {
		for src := 0; src < 4; src++ {
			q := Query{Workload: "sssp", N: 96, M: 384, U: 8, GraphSeed: 40 + g, Src: src * 7}
			qs = append(qs, q)
			want = append(want, Reference(q))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range qs {
					i := (k*(2*c+1) + c) % len(qs)
					resp := s.Do(qs[i])
					if resp.Mode != ModeExact || !distEqual(resp.Dist, want[i]) {
						errs <- fmt.Errorf("caller %d query %+v: mode %s, distances equal reference: %v",
							c, qs[i], resp.Mode, distEqual(resp.Dist, want[i]))
						return
					}
					if n := poolSize(s); n > 2 {
						errs <- fmt.Errorf("pool holds %d netlists with 2 workers", n)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolEvictsLeastRecentlyReturned: with two workers the pool holds
// the last two graphs served. A query on either is a hit; a query on an
// older graph misses and recompiles the least recently returned netlist.
func TestPoolEvictsLeastRecentlyReturned(t *testing.T) {
	col := trace.NewCollector(trace.Config{Seed: 1, KeepEvery: 1})
	s := newTestService(Config{Workers: 2, Trace: col})
	q := func(seed int64) Query {
		q := testQuery("sssp")
		q.GraphSeed = seed
		return q
	}
	for i, c := range []struct {
		seed int64
		want string
	}{
		{1, "sssp compile"}, {2, "sssp compile"}, {1, "cache hit"}, {3, "sssp compile"},
		{1, "cache hit"}, {2, "sssp compile"}, {3, "sssp compile"}, {3, "cache hit"},
	} {
		resp, got := buildDetail(t, s, col, q(c.seed), int64(i))
		if got != c.want || resp.Mode != ModeExact || !distEqual(resp.Dist, Reference(q(c.seed))) {
			t.Fatalf("query %d (graph %d): build %q mode %s, want %q and the exact reference", i, c.seed, got, resp.Mode, c.want)
		}
		if n := poolSize(s); n > 2 {
			t.Fatalf("query %d: pool holds %d netlists with 2 workers", i, n)
		}
	}
}

// TestPoolHitRegeneratesGraph: a hit does not generate the graph, so the
// rungs that read it must: the approx rung after the deadline fires on a
// pooled netlist, and the classic bypass once the breaker opens. Their
// answers equal those of a service that never pooled the graph.
func TestPoolHitRegeneratesGraph(t *testing.T) {
	col := trace.NewCollector(trace.Config{Seed: 1, KeepEvery: 1})
	s := newTestService(Config{BreakerThreshold: 2, BreakerCooldown: 100, Trace: col})
	q := testQuery("sssp")
	if _, got := buildDetail(t, s, col, q, 0); got != "sssp compile" {
		t.Fatalf("first query build %q, want a compile", got)
	}
	starved := q
	starved.Budget = 1
	resp, got := buildDetail(t, s, col, starved, 1)
	want := newTestService(Config{}).Execute(starved, 0)
	if got != "cache hit" || resp.Mode != ModeApprox || !resp.TimedOut || !distEqual(resp.Dist, want.Dist) {
		t.Fatalf("budget-starved hit: build %q mode %s timed out %v; want a cache hit served by approx as without the pool",
			got, resp.Mode, resp.TimedOut)
	}
	s.Execute(starved, 2) // the second engine failure opens the breaker
	if st := s.breaker("sssp").State(); st != BreakerOpen {
		t.Fatalf("breaker %v, want open", st)
	}
	if poolSize(s) != 1 {
		t.Fatalf("pool holds %d netlists, want the one graph's", poolSize(s))
	}
	resp = s.Execute(q, 3)
	if resp.Mode != ModeClassic || !distEqual(resp.Dist, Reference(q)) {
		t.Fatalf("open-breaker query on a pooled graph: mode %s, want the classic reference", resp.Mode)
	}
}

// TestPoolHitAllocs pins what a repeated exact query allocates: the run
// alone (its event queue, which a parked netlist drops, and its result),
// well under one netlist more. A hit that compiled again or generated
// the graph would add at least that.
func TestPoolHitAllocs(t *testing.T) {
	q := Query{Workload: "sssp", N: 4096, M: 4 * 4096, U: 8, GraphSeed: 3}
	bytesPer := func(k int, f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < k; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(k)
	}
	g := buildGraph(q)
	parked := make([]*core.SSSPNetwork, 5)
	for i := range parked {
		parked[i] = core.BuildSSSP(g)
		parked[i].Park()
	}
	netlist := uint64(parked[0].MemoryBytes())
	next := 0
	run := bytesPer(len(parked), func() {
		parked[next].Run(q.Src, -1)
		next++
	})
	s := newTestService(Config{})
	s.Execute(q, 0)
	hit := bytesPer(10, func() { s.Execute(q, 0) })
	if hit >= run+netlist/4 {
		t.Fatalf("a repeated exact query allocated %d B; a parked netlist's run allocates %d B and one netlist is %d B", hit, run, netlist)
	}
	t.Logf("hit %d B, parked run %d B, netlist %d B", hit, run, netlist)
}
