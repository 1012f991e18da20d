package service

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// graphKey names the graph a query generates: buildGraph is a pure
// function of these fields.
type graphKey struct {
	n, m    int
	u, seed int64
}

func keyOf(q Query) graphKey {
	return graphKey{n: q.N, m: q.M, u: q.U, seed: q.GraphSeed}
}

// netPool keeps the exact rung's compiled relay netlists between
// queries, at most max of them, so a query on a graph the pool holds
// skips generating and compiling it. A netlist is out of the pool while
// a query runs it (a network serves one run at a time), and while max
// netlists are idle or out a miss recompiles an idle one instead of
// building another. Pooled netlists are parked (core.SSSPNetwork.Park),
// so the pool holds what loaded chips hold, the programmed synapses, and
// neither the host graphs nor the event queues of past runs.
type netPool struct {
	max  int
	mu   sync.Mutex
	idle []pooledNet // guarded by mu; least recently returned first
	out  int         // guarded by mu; netlists taken and not yet put or dropped
}

type pooledNet struct {
	key graphKey
	sn  *core.SSSPNetwork
}

func newNetPool(max int) *netPool { return &netPool{max: max} }

// take removes and returns an idle netlist compiled for key, with hit
// set. Without one, and with the pool full, it returns the least
// recently returned idle netlist for the caller to recompile; otherwise
// nil, for the caller to build one. Either way the caller owes a put or
// a drop.
func (p *netPool) take(key graphKey) (sn *core.SSSPNetwork, hit bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out++
	i := len(p.idle) - 1
	for i >= 0 && p.idle[i].key != key {
		i--
	}
	if hit = i >= 0; !hit {
		if len(p.idle) == 0 || len(p.idle)+p.out <= p.max {
			return nil, false
		}
		i = 0
	}
	sn = p.idle[i].sn
	p.idle = slices.Delete(p.idle, i, i+1)
	return sn, hit
}

// put parks sn, compiled for key, and returns it to the pool. A pool
// already at max drops its least recently returned netlist; that
// happens only when more queries ran at once than the pool holds.
func (p *netPool) put(key graphKey, sn *core.SSSPNetwork) {
	sn.Park()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out--
	if len(p.idle) == p.max {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.idle = append(p.idle, pooledNet{key: key, sn: sn})
}

// drop settles a take whose netlist is not coming back: its query
// panicked before the run finished.
func (p *netPool) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out--
}

// queryGraph generates a query's graph on first use and keeps it for the
// rest of the query, so a query served from a pooled netlist generates
// none unless a rung that reads the graph runs.
type queryGraph struct {
	q Query
	g *graph.Graph
}

func (qg *queryGraph) get() *graph.Graph {
	if qg.g == nil {
		qg.g = buildGraph(qg.q)
	}
	return qg.g
}
