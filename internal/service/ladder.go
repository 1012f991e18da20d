package service

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/trace"
)

// ladder runs the degradation ladder for an admitted query whose breaker
// allowed the engine path. Rungs, in order (sssp):
//
//  1. exact     — fault-free engine run within budget (only when the
//     service's fault model is zero: under injected faults an unvalidated
//     run could be silently wrong, so the ladder never serves it).
//  2. nmr       — faults.NMR majority voting, retried with reseeded
//     replicas under exponential backoff while the vote is inconclusive.
//  3. selfcheck — faults.SelfCheck: engine answer verified
//     against the classic reference (its internal retries and fallback
//     are charged to the query); a verified answer serves as
//     "selfcheck", its exhausted fallback serves as "classic".
//  4. approx    — budget exhausted: a core.ApproxKHop truncated answer.
//
// khop: exact core.KHopTTL within budget, else the approx rung.
// Every rung charges its simulated cost (spike time + backoff units) to
// resp.CostUnits; a budget of 0 is unlimited. Each rung attempted opens
// a StageRung span on qt (nil = untraced), with build/run/retry
// sub-spans; run spans carry the rung's engine totals, read from its
// snn.Stats after the run.
func (s *Service) ladder(q Query, qg *queryGraph, resp *Response, qt *trace.Active) {
	if q.Workload == "khop" {
		s.ladderKHop(q, qg.get(), resp, qt)
		return
	}
	s.ladderSSSP(q, qg, resp, qt)
}

// remainingBudget tracks the query's deadline. budget 0 means unlimited.
type remainingBudget struct {
	limited bool
	left    int64
}

func newRemaining(budget int64) *remainingBudget {
	return &remainingBudget{limited: budget > 0, left: budget}
}

// charge deducts cost, saturating at zero. Returns the amount charged.
func (r *remainingBudget) charge(cost int64) int64 {
	if cost < 1 {
		cost = 1
	}
	if r.limited {
		if cost > r.left {
			cost = r.left
		}
		r.left -= cost
	}
	return cost
}

// exhausted reports whether a limited budget has run dry.
func (r *remainingBudget) exhausted() bool { return r.limited && r.left <= 0 }

// cap returns the step budget to hand the engine (0 = unlimited).
func (r *remainingBudget) cap() int64 {
	if !r.limited {
		return 0
	}
	return r.left
}

func (s *Service) ladderSSSP(q Query, qg *queryGraph, resp *Response, qt *trace.Active) {
	rem := newRemaining(q.Budget)
	if s.cfg.Model.Zero() {
		// Rung 1: exact. The budget caps the simulation horizon, so a
		// too-slow query comes back TimedOut instead of running on. The
		// build/run phase boundary is explicit here so the trace can
		// bracket each (and, in wall mode, refine the spans with real
		// microseconds via a perf.Tracker sink). A netlist the pool holds
		// for this graph is run as it is: the build becomes a zero-unit
		// cache-hit event.
		rref := qt.Begin(trace.StageRung, ModeExact)
		var tk *perf.Tracker
		if s.traceWall(qt) {
			tk = perf.NewTracker()
			tk.SetSpanSink(qt)
		}
		key := keyOf(q)
		sn, hit := s.pool.take(key)
		returned := false
		defer func() {
			if !returned {
				s.pool.drop()
			}
		}()
		if hit {
			qt.End(qt.BeginUnder(rref, trace.StageBuild, "cache hit"), 0)
		} else {
			bref := qt.BeginUnder(rref, trace.StageBuild, "sssp compile")
			tk.Phase(trace.StageBuild)
			g := qg.get()
			if sn == nil {
				sn = core.BuildSSSP(g)
			} else {
				sn.Recompile(g)
			}
			qt.End(bref, int64(g.M()+g.N())) // synapse-programming events: the O(m+n) load model
		}
		eref := qt.BeginUnder(rref, trace.StageRun, "wavefront")
		tk.Phase(trace.StageRun)
		res, _ := sn.RunBudgeted(q.Src, -1, nil, 0, rem.cap())
		tk.Stop()
		s.pool.put(key, sn)
		returned = true
		qt.EndEngine(eref, res.SpikeTime, res.Stats.Steps, res.Stats.Spikes, res.Stats.Deliveries)
		if !res.TimedOut {
			resp.Mode = ModeExact
			resp.Dist = res.Dist
			resp.SpikeTime = res.SpikeTime
			resp.CostUnits += rem.charge(res.SpikeTime)
			qt.EndAt(rref)
			return
		}
		// The deadline fired mid-wavefront: the whole budget is spent.
		resp.TimedOut = true
		resp.CostUnits += rem.charge(rem.cap())
		qt.EndAt(rref)
		s.approxRung(q, qg.get(), resp, qt)
		return
	}

	g := qg.get()
	model := s.cfg.Model.WithSeed(s.querySeed(q))
	// The fault rungs compile the graph once, on first use, and re-run
	// that one network for every NMR replica, retry and self-check attempt.
	var sn *core.SSSPNetwork
	compiled := func() *core.SSSPNetwork {
		if sn == nil {
			sn = core.BuildSSSP(g)
		}
		return sn
	}
	// Rung 2: NMR voting, retried while the vote is inconclusive. A
	// full-horizon voting round costs at least one pristine wavefront, so
	// skip the rung when the remaining budget cannot cover even that.
	minRound := minEngineCost(g)
	begun := false
	var rref trace.SpanRef
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		if rem.limited && rem.left < minRound {
			break
		}
		if !begun {
			rref = qt.Begin(trace.StageRung, ModeNMR)
			begun = true
		}
		m := model
		if attempt > 0 {
			m = model.WithSeed(faults.DeriveSeed(model.Seed, "service-nmr-retry", attempt))
			resp.Retries++
			backoff := int64(1) << (attempt - 1)
			resp.Backoff += backoff
			resp.CostUnits += rem.charge(backoff)
			aref := qt.BeginUnder(rref, trace.StageRetry, "attempt "+strconv.Itoa(attempt))
			qt.End(aref, backoff)
		}
		eref := qt.BeginUnder(rref, trace.StageRun, "nmr vote")
		vote := faults.NMR(compiled(), q.Src, m, s.cfg.NMRReplicas)
		qt.EndEngine(eref, vote.SpikeTime, vote.Steps, vote.Spikes, vote.Deliveries)
		resp.CostUnits += rem.charge(vote.SpikeTime)
		if vote.TimedOut > 0 {
			resp.TimedOut = true
		}
		if len(vote.NoMajority) == 0 && vote.TimedOut == 0 {
			resp.Mode = ModeNMR
			resp.Dist = vote.Dist
			resp.SpikeTime = vote.SpikeTime
			qt.EndAt(rref)
			return
		}
	}
	if begun {
		qt.EndAt(rref)
	}

	// Rung 3: self-check. Verification needs the classic reference
	// anyway, so its fallback is free — but its engine attempts are
	// full-horizon runs, so the rung is gated on remaining budget.
	if !rem.limited || rem.left >= minRound {
		cref := qt.Begin(trace.StageRung, ModeSelfCheck)
		eref := qt.BeginUnder(cref, trace.StageRun, "selfcheck")
		check := faults.SelfCheck(compiled(), q.Src, model.WithSeed(
			faults.DeriveSeed(model.Seed, "service-selfcheck", 0)), s.cfg.MaxRetries)
		qt.EndEngine(eref, check.SpikeTime, check.Steps, check.Spikes, check.Deliveries)
		if check.Attempts > 1 {
			aref := qt.BeginUnder(cref, trace.StageRetry,
				strconv.Itoa(check.Attempts-1)+" selfcheck retries")
			qt.End(aref, check.BackoffUnits)
		}
		resp.Retries += check.Attempts - 1
		resp.Backoff += check.BackoffUnits
		resp.CostUnits += rem.charge(check.SpikeTime + check.BackoffUnits)
		if check.TimedOutRuns > 0 {
			resp.TimedOut = true
		}
		if check.Degraded {
			resp.Mode = ModeClassic
		} else {
			resp.Mode = ModeSelfCheck
			resp.SpikeTime = check.SpikeTime
		}
		resp.Dist = check.Dist
		qt.EndAt(cref)
		return
	}

	// Rung 4: out of budget — truncated approximation.
	s.approxRung(q, g, resp, qt)
}

// minEngineCost is the cheapest conceivable full-horizon engine round: a
// pristine wavefront crossing the graph's shallowest edge once. Rungs
// that must run to completion (NMR, self-check) are skipped when the
// remaining budget cannot cover it.
func minEngineCost(g *graph.Graph) int64 {
	if g.M() == 0 {
		return 1
	}
	return g.MinLen() + 1
}

// approxRung serves the final ladder step: a truncated
// (1+o(1))-approximate answer over at most q.K hops. Its cost is charged
// but not gated — it is the floor of the ladder.
func (s *Service) approxRung(q Query, g *graph.Graph, resp *Response, qt *trace.Active) {
	k := q.K
	if k < 1 {
		k = 1
	}
	if k > g.N()-1 {
		k = g.N() - 1
	}
	rref := qt.Begin(trace.StageRung, ModeApprox)
	ap := core.ApproxKHop(g, q.Src, k, 0)
	resp.Mode = ModeApprox
	resp.SpikeTime = ap.SpikeTime
	resp.CostUnits += ap.SpikeTime
	resp.Dist = make([]int64, len(ap.Dist))
	for i, d := range ap.Dist {
		if d >= float64(graph.Inf) {
			resp.Dist[i] = graph.Inf
		} else {
			resp.Dist[i] = int64(d + 0.5)
		}
	}
	qt.End(rref, ap.SpikeTime)
}

func (s *Service) ladderKHop(q Query, g *graph.Graph, resp *Response, qt *trace.Active) {
	rem := newRemaining(q.Budget)
	r := core.KHopTTL(g, q.Src, -1, q.K)
	// KHopTTL compiles and runs in one call; its result carries the model
	// load/run split, so the trace spans are reconstructed after the fact.
	rref := qt.Begin(trace.StageRung, ModeExact)
	bref := qt.BeginUnder(rref, trace.StageBuild, "ttl compile")
	qt.End(bref, r.LoadTime)
	eref := qt.BeginUnder(rref, trace.StageRun, "ttl wavefront")
	qt.End(eref, r.SpikeTime)
	qt.EndAt(rref)
	if rem.limited && r.SpikeTime > rem.left {
		// The exact k-hop run blows the deadline: charge what was left
		// and fall to the truncated approximation.
		resp.TimedOut = true
		resp.CostUnits += rem.charge(rem.cap())
		s.approxRung(q, g, resp, qt)
		return
	}
	resp.Mode = ModeExact
	resp.Dist = r.Dist
	resp.SpikeTime = r.SpikeTime
	resp.CostUnits += rem.charge(r.SpikeTime)
}
