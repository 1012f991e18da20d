package faults

import (
	"slices"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/graph"
)

// RunResult couples one faulted SSSP run with its fault tally.
type RunResult struct {
	Res      *core.SSSPResult
	Counters Counters
	// Err is core.ErrTimedOut-wrapped when a destination-bounded run
	// exhausted its horizon; nil otherwise.
	Err error
}

// Run executes one Section 3 spiking SSSP run under model on the compiled
// network sn, which it may share with other runs (its result equals a
// fresh compile's). A zero model skips injector attachment entirely,
// reproducing the pristine engine path (and its stats) byte-for-byte; a
// faulted model runs with the horizon extended by Model.HorizonSlack so
// delay jitter cannot masquerade as unreachability. budget > 0 cuts the
// simulation off after budget steps (SSSPNetwork.RunBudgeted), so a query
// slowed past its budget — by faults or by the workload itself — comes
// back with Res.TimedOut set instead of running to the analytic horizon.
func Run(sn *core.SSSPNetwork, src, dst int, model Model, budget int64) RunResult {
	if model.Zero() {
		res, err := sn.RunBudgeted(src, dst, nil, 0, budget)
		return RunResult{Res: res, Err: err}
	}
	inj := New(model)
	res, err := sn.RunBudgeted(src, dst, inj, model.HorizonSlack(sn.Neurons()), budget)
	return RunResult{Res: res, Counters: inj.Counters, Err: err}
}

// NMRResult is the outcome of an N-modular-redundancy SSSP run: K
// independently perturbed replicas, majority-voted per vertex.
type NMRResult struct {
	// Dist is the voted distance vector.
	Dist []int64
	// Replicas is K; Disagreeing lists the replica indices whose own
	// distance vector differs from the vote anywhere (the replicas an
	// operator would flag for hardware diagnosis).
	Replicas    int
	Disagreeing []int
	// NoMajority lists vertices where no value reached a strict majority
	// (the vote fell back to the plurality value, smallest on ties): the
	// honest "redundancy was not enough here" signal.
	NoMajority []int
	// TimedOut counts replicas whose run exhausted its horizon; their
	// partial distances still vote (early-wavefront vertices may be
	// correct even in a failed replica).
	TimedOut int
	// Counters sums the faults landed across all replicas. SpikeTime is
	// the slowest replica's (replicas run concurrently on real hardware);
	// Steps, Spikes and Deliveries sum the replicas' snn.Stats (energy is
	// additive).
	Counters   Counters
	SpikeTime  int64
	Steps      int64
	Spikes     int64
	Deliveries int64
}

// NMRSSSP runs K replicas of the spiking SSSP on g under model; it
// compiles g once and votes with NMR.
func NMRSSSP(g *graph.Graph, src int, model Model, k int) *NMRResult {
	return NMR(core.BuildSSSP(g), src, model, k)
}

// NMR runs K replicas of the spiking SSSP on the compiled network sn under
// model, each with an independently derived seed (stream "nmr-replica"),
// and majority-votes the per-vertex distances. Replica 0 uses the model's
// own seed, so NMR(K=1) reproduces Run exactly. The replicas re-run the
// one network in turn, as K replica chips loaded with the same netlist
// would run it side by side.
func NMR(sn *core.SSSPNetwork, src int, model Model, k int) *NMRResult {
	if k < 1 {
		panic("faults: NMR with k < 1 replicas")
	}
	n := sn.Neurons() // relay ids equal vertex ids
	res := &NMRResult{Dist: make([]int64, n), Replicas: k}
	dists := make([][]int64, k)
	for r := 0; r < k; r++ {
		seed := model.Seed
		if r > 0 {
			seed = DeriveSeed(model.Seed, "nmr-replica", r)
		}
		run := Run(sn, src, -1, model.WithSeed(seed), 0)
		dists[r] = run.Res.Dist
		if run.Res.TimedOut {
			res.TimedOut++
		}
		res.Counters.Add(run.Counters)
		if run.Res.SpikeTime > res.SpikeTime {
			res.SpikeTime = run.Res.SpikeTime
		}
		res.Steps += run.Res.Stats.Steps
		res.Spikes += run.Res.Stats.Spikes
		res.Deliveries += run.Res.Stats.Deliveries
	}

	votes := make([]int64, k)
	for v := 0; v < n; v++ {
		for r := 0; r < k; r++ {
			votes[r] = dists[r][v]
		}
		best, bestCount := vote(votes)
		res.Dist[v] = best
		if 2*bestCount <= k {
			res.NoMajority = append(res.NoMajority, v)
		}
	}
	for r := 0; r < k; r++ {
		for v := 0; v < n; v++ {
			if dists[r][v] != res.Dist[v] {
				res.Disagreeing = append(res.Disagreeing, r)
				break
			}
		}
	}
	return res
}

// vote returns the most frequent value of votes and its count, ties going
// to the smaller value: a strict majority always wins, and without one
// the vote falls back to the plurality. It sorts votes in place.
func vote(votes []int64) (best int64, count int) {
	slices.Sort(votes)
	for i := 0; i < len(votes); {
		j := i + 1
		for j < len(votes) && votes[j] == votes[i] {
			j++
		}
		if j-i > count { // ascending order: an equal later run never wins
			best, count = votes[i], j-i
		}
		i = j
	}
	return best, count
}

// SelfCheckResult is the outcome of a validated SSSP run: the spiking
// result checked against the classic reference, with retries and an
// eventual degraded fallback.
type SelfCheckResult struct {
	// Dist is the accepted distance vector (spiking if any attempt
	// verified, the classic reference under degraded mode).
	Dist []int64
	// Attempts counts spiking runs executed (1 + retries used);
	// MismatchCaught counts attempts whose output disagreed with the
	// reference — every one a wrong answer the self-check intercepted.
	Attempts       int
	MismatchCaught int
	TimedOutRuns   int
	// BackoffUnits charges the exponential backoff between retries in
	// abstract delay units: retry i waits 2^(i-1) units, so a full budget
	// of R retries costs 2^R - 1.
	BackoffUnits int64
	// Degraded is true when the retry budget was exhausted and the result
	// fell back to classic Dijkstra — correct, but without the
	// neuromorphic advantage the run was meant to demonstrate.
	Degraded bool
	// Counters sums the faults landed across all attempts; SpikeTime is
	// the accepted attempt's (0 under degraded mode). Steps, Spikes and
	// Deliveries sum every attempt's snn.Stats.
	Counters   Counters
	SpikeTime  int64
	Steps      int64
	Spikes     int64
	Deliveries int64
}

// SSSPWithSelfCheck runs the self-checked spiking SSSP on g under model;
// it compiles g once and checks with SelfCheck against classic Dijkstra
// on g.
func SSSPWithSelfCheck(g *graph.Graph, src int, model Model, maxRetries int) *SelfCheckResult {
	return SelfCheck(core.BuildSSSP(g), classic.Dijkstra(g, src).Dist, src, model, maxRetries)
}

// SelfCheck runs the spiking SSSP on the compiled network sn under model
// and validates the full distance vector against ref, the reference
// distances from src (classic Dijkstra on the graph sn was compiled from,
// which the check needs anyway, making the degraded fallback free). On
// mismatch or timeout it retries on the same network with a
// freshly derived seed (stream "selfcheck-retry") under exponential
// backoff, up to maxRetries; if no attempt verifies, it returns the
// reference distances with Degraded set — the caller gets a correct
// answer or an explicit degraded flag, never a silent wrong one.
func SelfCheck(sn *core.SSSPNetwork, ref []int64, src int, model Model, maxRetries int) *SelfCheckResult {
	if maxRetries < 0 {
		panic("faults: negative retry budget")
	}
	out := &SelfCheckResult{}
	m := model
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			m = model.WithSeed(DeriveSeed(model.Seed, "selfcheck-retry", attempt))
			out.BackoffUnits += int64(1) << (attempt - 1)
		}
		run := Run(sn, src, -1, m, 0)
		out.Attempts++
		out.Counters.Add(run.Counters)
		out.Steps += run.Res.Stats.Steps
		out.Spikes += run.Res.Stats.Spikes
		out.Deliveries += run.Res.Stats.Deliveries
		if run.Res.TimedOut {
			out.TimedOutRuns++
			continue
		}
		if !distEqual(run.Res.Dist, ref) {
			out.MismatchCaught++
			continue
		}
		out.Dist = run.Res.Dist
		out.SpikeTime = run.Res.SpikeTime
		return out
	}
	out.Degraded = true
	out.Dist = ref
	return out
}

func distEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
