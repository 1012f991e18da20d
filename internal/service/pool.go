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

// netPool keeps the ladder's compiled relay netlists between queries, at
// most max of them, so a query on a graph the pool holds skips compiling
// it. A netlist is out of the pool while a query runs it (a network
// serves one run at a time), and while max netlists are idle or out a
// miss recompiles an idle one instead of building another. Pooled
// netlists are parked (core.SSSPNetwork.Park), so the pool holds what
// loaded chips hold, the programmed synapses, and neither the host
// graphs nor the event queues of past runs.
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

// loan is one query's claim on a pooled relay netlist; every engine rung
// of the ladder runs the netlist it holds. take borrows from the pool on
// first call, compile programs the query's graph into a netlist the pool
// did not hold for it, and settle, deferred by the ladder, returns the
// netlist to the pool once the ladder is done with it, or writes the
// loan off when the query panicked before then. The pool key is the
// graph alone: the relay netlist does not depend on the fault model.
type loan struct {
	pool  *netPool
	key   graphKey
	sn    *core.SSSPNetwork
	taken bool // take borrowed from the pool
	ready bool // sn holds key's netlist
	done  bool // the ladder finished
}

// take borrows the netlist on first call and reports whether it holds
// key's netlist, as a pool hit or after compile.
func (l *loan) take() bool {
	if !l.taken {
		l.sn, l.ready = l.pool.take(l.key)
		l.taken = true
	}
	return l.ready
}

// compile programs g, the graph of key, into the borrowed netlist:
// recompiling a recycled one, or building one when the pool had none.
func (l *loan) compile(g *graph.Graph) {
	if l.sn == nil {
		l.sn = core.BuildSSSP(g)
	} else {
		l.sn.Recompile(g)
	}
	l.ready = true
}

// netlist returns key's compiled netlist, borrowing and compiling it on
// first use.
func (l *loan) netlist(qg *queryGraph) *core.SSSPNetwork {
	if !l.take() {
		l.compile(qg.get())
	}
	return l.sn
}

// settle ends the loan: put once the ladder is done, drop after a panic.
func (l *loan) settle() {
	switch {
	case !l.taken:
	case l.done:
		l.pool.put(l.key, l.sn)
	default:
		l.pool.drop()
	}
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
