package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
)

// ChaosConfig parameterizes a chaos campaign: a seeded arrival process of
// mixed queries fired at the service faster than it can absorb them,
// under the service's fault model, with service-level assertions checked
// afterwards by (*ChaosReport).Check.
type ChaosConfig struct {
	// Queries is the campaign length; Tenants spreads them round-robin
	// over that many token buckets; Workloads is the round-robin mix
	// (default sssp, khop).
	Queries   int
	Tenants   int
	Workloads []string
	// Seed anchors every stream of the campaign: arrival gaps
	// ("chaos-arrival"), per-query graph seeds ("chaos-graph"), source
	// choices ("chaos-src").
	Seed int64
	// MeanGap is the mean inter-arrival gap in clock units. The default
	// (10) overloads the default service well past its capacity — the
	// point of the campaign is the overload regime.
	MeanGap int64
	// Query shape.
	N      int
	M      int
	U      int64
	K      int
	Budget int64
	// Deterministic selects the virtual-time driver: arrivals, queueing,
	// quota refills and breaker cooldowns all run on a simulated
	// timeline with sequential execution in admission order, so the
	// whole campaign — report included — is byte-reproducible.
	// Otherwise the campaign hammers Service.Do from real goroutines
	// (the race-detector target) and timing is wall-clock.
	Deterministic bool

	// Strict-gate budgets, enforced by Check. MinShed asserts the
	// overload actually exercised shedding; MaxShedFrac / MaxDegradedFrac
	// bound how much of the campaign may shed / degrade; P99Budget (when
	// > 0) bounds the p99 latency of executed queries in clock units.
	MinShed         int
	MaxShedFrac     float64
	MaxDegradedFrac float64
	P99Budget       int64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Queries < 1 {
		c.Queries = 160
	}
	if c.Tenants < 1 {
		c.Tenants = 4
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"sssp", "khop"}
	}
	if c.MeanGap < 1 {
		c.MeanGap = 10
	}
	if c.N <= 0 {
		c.N = 48
	}
	if c.M <= 0 {
		c.M = 4 * c.N
	}
	if c.U <= 0 {
		c.U = 8
	}
	if c.K <= 0 {
		c.K = 4
	}
	if c.MaxShedFrac <= 0 {
		c.MaxShedFrac = 0.9
	}
	if c.MaxDegradedFrac <= 0 {
		c.MaxDegradedFrac = 1.0
	}
	return c
}

// ChaosReport is the campaign outcome. All fields except Wall are
// deterministic under ChaosConfig.Deterministic.
type ChaosReport struct {
	Queries  int `json:"queries"`
	Admitted int `json:"admitted"`
	Shed     int `json:"shed"`
	// ShedByReason and ByMode break sheds and executed queries down by
	// admission-refusal reason and ladder rung.
	ShedByReason map[string]int `json:"shed_by_reason"`
	ByMode       map[string]int `json:"by_mode"`
	Degraded     int            `json:"degraded"`
	Retries      int            `json:"retries"`
	TimedOut     int            `json:"timed_out"`
	// Crashes counts panics recovered at the query boundary (the gate
	// requires zero: the service sheds rather than crashes).
	Crashes int `json:"crashes"`
	// WrongAnswers counts reference mismatches in responses that claimed
	// an exactness guarantee (mode exact/selfcheck/classic, or any
	// response not labeled Degraded) — the silent wrong answers the gate
	// requires to be zero. LabeledMismatches counts mismatches that were
	// honestly labeled (nmr/approx rungs): allowed, reported.
	WrongAnswers      int `json:"wrong_answers"`
	LabeledMismatches int `json:"labeled_mismatches"`
	// Latency percentiles over executed queries, in clock units.
	P50           int64 `json:"p50"`
	P90           int64 `json:"p90"`
	P99           int64 `json:"p99"`
	MaxQueueDepth int   `json:"max_queue_depth"`
	// Horizon is the virtual end time of a deterministic campaign.
	Horizon int64 `json:"horizon"`
	// Wall is real elapsed time; zero under Deterministic.
	Wall time.Duration `json:"-"`
	// TraceTailIDs lists the trace IDs of executed queries that came back
	// degraded or timed out — exactly the traces the tail sampler promises
	// to keep. VerifyTraceCoverage checks each against the collector's
	// report. Campaign-internal bookkeeping, not part of the JSON report.
	TraceTailIDs []string `json:"-"`
}

// RunChaos fires a chaos campaign at svc. The service's fault model,
// budget, breaker, quota and queue configuration all come from the
// Service; the campaign shape comes from cfg.
func RunChaos(svc *Service, cfg ChaosConfig) *ChaosReport {
	cfg = cfg.withDefaults()
	rep := &ChaosReport{
		Queries:      cfg.Queries,
		ShedByReason: make(map[string]int),
		ByMode:       make(map[string]int),
	}
	queries, arrivals := chaosQueries(cfg)
	if cfg.Deterministic {
		runChaosVirtual(svc, cfg, queries, arrivals, rep)
	} else {
		runChaosLive(svc, cfg, queries, rep)
	}
	if rep.WrongAnswers > 0 {
		svc.reg.Counter(MetricWrongAnswer, "chaos-verified guarantee violations (gate requires zero)").
			Add(int64(rep.WrongAnswers))
	}
	return rep
}

// chaosQueries derives the campaign's query list and arrival times from
// the seed streams.
func chaosQueries(cfg ChaosConfig) ([]Query, []int64) {
	arr := faults.NewStream(cfg.Seed, "chaos-arrival")
	srcs := faults.NewStream(cfg.Seed, "chaos-src")
	queries := make([]Query, cfg.Queries)
	arrivals := make([]int64, cfg.Queries)
	t := int64(0)
	for i := range queries {
		t += 1 + arr.Int63n(2*cfg.MeanGap)
		arrivals[i] = t
		queries[i] = Query{
			Workload:  cfg.Workloads[i%len(cfg.Workloads)],
			Tenant:    "t" + strconv.Itoa(i%cfg.Tenants),
			N:         cfg.N,
			M:         cfg.M,
			U:         cfg.U,
			GraphSeed: faults.DeriveSeed(cfg.Seed, "chaos-graph", i),
			Src:       int(srcs.Int63n(int64(cfg.N))),
			K:         cfg.K,
			Budget:    cfg.Budget,
		}
	}
	return queries, arrivals
}

// runChaosVirtual is the deterministic driver: an event-driven queueing
// simulation. Workers are busy-until timestamps; arrivals pass quota
// admission on the virtual timeline, start immediately on a free worker,
// wait in a bounded FIFO, or are shed. Queries execute sequentially in
// start-time order, so breaker and quota state evolve reproducibly; each
// query's Response.CostUnits is its simulated service duration.
func runChaosVirtual(svc *Service, cfg ChaosConfig, queries []Query, arrivals []int64, rep *ChaosReport) {
	workers := make([]int64, svc.cfg.Workers) // busy-until, virtual units
	type waiter struct {
		idx     int
		arrived int64
	}
	var queue []waiter
	lats := make([]int64, 0, len(queries))

	freeWorker := func() int {
		best := 0
		for w := 1; w < len(workers); w++ {
			if workers[w] < workers[best] {
				best = w
			}
		}
		return best
	}
	exec := func(idx, w int, start, arrived int64) {
		if lc, ok := svc.clock.(*LogicalClock); ok {
			lc.Set(start)
		}
		// The trace opens at arrival so queue wait is causally inside it,
		// exactly as on the live Do path.
		qt := svc.startTrace(&queries[idx], arrived)
		qt.Event(trace.StageAdmission, "ok")
		if start > arrived {
			wref := qt.Begin(trace.StageQueueWait, "virtual queue")
			qt.End(wref, start-arrived)
		}
		resp := safeExecute(svc, queries[idx], start, qt)
		dur := resp.CostUnits
		if dur < 1 {
			dur = 1
		}
		workers[w] = start + dur
		latency := start + dur - arrived
		svc.observe(resp, latency)
		svc.finishTrace(qt, resp, start+dur)
		lats = append(lats, latency)
		recordChaos(rep, queries[idx], resp)
		if workers[w] > rep.Horizon {
			rep.Horizon = workers[w]
		}
	}
	drainUntil := func(now int64) {
		for len(queue) > 0 {
			w := freeWorker()
			if workers[w] > now {
				return
			}
			head := queue[0]
			queue = queue[1:]
			start := workers[w]
			if head.arrived > start {
				start = head.arrived
			}
			exec(head.idx, w, start, head.arrived)
		}
	}

	for i, at := range arrivals {
		drainUntil(at)
		if ra, ok := svc.TakeQuota(queries[i].Tenant, at); !ok {
			qt := svc.startTrace(&queries[i], at)
			resp := svc.shedTraced(qt, queries[i], "quota", ra, at)
			recordChaos(rep, queries[i], resp)
			continue
		}
		w := freeWorker()
		switch {
		case workers[w] <= at:
			exec(i, w, at, at)
		case len(queue) < svc.cfg.QueueCap:
			queue = append(queue, waiter{idx: i, arrived: at})
			if len(queue) > rep.MaxQueueDepth {
				rep.MaxQueueDepth = len(queue)
			}
		default:
			qt := svc.startTrace(&queries[i], at)
			resp := svc.shedTraced(qt, queries[i], "queue_full", workers[w]-at, at)
			recordChaos(rep, queries[i], resp)
		}
	}
	drainUntil(int64(1) << 62)
	fillPercentiles(rep, lats)
}

// runChaosLive hammers Service.Do from real goroutines — full admission
// control under true concurrency, wall-clock timing. Not reproducible;
// this is the race-detector and soak target.
func runChaosLive(svc *Service, cfg ChaosConfig, queries []Query, rep *ChaosReport) {
	//lint:wallclock live chaos wall time feeds ChaosReport.Wall by design
	start := time.Now()
	par := 2*svc.cfg.Workers + svc.cfg.QueueCap + 2
	if par > len(queries) {
		par = len(queries)
	}
	var mu sync.Mutex
	lats := make([]int64, 0, len(queries))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				t0 := svc.clock.Now()
				resp := safeDo(svc, queries[idx])
				latency := svc.clock.Now() - t0
				mu.Lock()
				if resp.Mode != ModeShed {
					lats = append(lats, latency)
				}
				recordChaos(rep, queries[idx], resp)
				mu.Unlock()
			}
		}()
	}
	for i := range queries {
		work <- i
	}
	close(work)
	wg.Wait()
	fillPercentiles(rep, lats)
	//lint:wallclock live chaos wall time feeds ChaosReport.Wall by design
	rep.Wall = time.Since(start)
}

func safeExecute(svc *Service, q Query, now int64, qt *trace.Active) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Status: 500, Workload: q.Workload, Tenant: q.Tenant,
				Mode: ModeError, Err: fmt.Sprint(r)}
		}
	}()
	if err := svc.normalize(&q); err != nil {
		return &Response{Status: 400, Workload: q.Workload, Tenant: q.Tenant, Mode: ModeError, Err: err.Error()}
	}
	return svc.execute(q, now, qt)
}

func safeDo(svc *Service, q Query) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Status: 500, Workload: q.Workload, Tenant: q.Tenant,
				Mode: ModeError, Err: fmt.Sprint(r)}
		}
	}()
	return svc.Do(q)
}

// recordChaos folds one response into the report, checking executed
// answers against the host-side reference.
func recordChaos(rep *ChaosReport, q Query, resp *Response) {
	rep.ByMode[resp.Mode]++
	switch resp.Mode {
	case ModeShed:
		rep.Shed++
		rep.ShedByReason[resp.ShedReason]++
		return
	case ModeError:
		rep.Crashes++
		return
	}
	rep.Admitted++
	rep.Retries += resp.Retries
	if resp.TimedOut {
		rep.TimedOut++
	}
	if resp.Degraded {
		rep.Degraded++
	}
	if (resp.Degraded || resp.TimedOut) && resp.TraceID != "" {
		rep.TraceTailIDs = append(rep.TraceTailIDs, resp.TraceID)
	}
	ref := Reference(q)
	if !distEqual(resp.Dist, ref) {
		if Guaranteed(resp.Mode) || !resp.Degraded {
			rep.WrongAnswers++
		} else {
			rep.LabeledMismatches++
		}
	}
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

func fillPercentiles(rep *ChaosReport, lats []int64) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(q float64) int64 {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	rep.P50, rep.P90, rep.P99 = pick(0.50), pick(0.90), pick(0.99)
}

// Check enforces the campaign's service-level assertions: no crashes, no
// silent wrong answers, shedding actually exercised and bounded,
// degradation bounded, p99 bounded. It returns nil when the campaign
// passes the strict gate.
func (r *ChaosReport) Check(cfg ChaosConfig) error {
	cfg = cfg.withDefaults()
	var errs []string
	if r.Crashes > 0 {
		errs = append(errs, fmt.Sprintf("%d queries crashed (the service must shed, not crash)", r.Crashes))
	}
	if r.WrongAnswers > 0 {
		errs = append(errs, fmt.Sprintf("%d silent wrong answers (guaranteed-mode responses diverged from the reference)", r.WrongAnswers))
	}
	if r.Shed < cfg.MinShed {
		errs = append(errs, fmt.Sprintf("only %d sheds (< %d): the campaign did not exercise overload", r.Shed, cfg.MinShed))
	}
	if frac := float64(r.Shed) / float64(max(1, r.Queries)); frac > cfg.MaxShedFrac {
		errs = append(errs, fmt.Sprintf("shed fraction %.3f exceeds budget %.3f", frac, cfg.MaxShedFrac))
	}
	if frac := float64(r.Degraded) / float64(max(1, r.Admitted)); frac > cfg.MaxDegradedFrac {
		errs = append(errs, fmt.Sprintf("degraded fraction %.3f exceeds budget %.3f", frac, cfg.MaxDegradedFrac))
	}
	if cfg.P99Budget > 0 && r.P99 > cfg.P99Budget {
		errs = append(errs, fmt.Sprintf("p99 latency %d units exceeds budget %d", r.P99, cfg.P99Budget))
	}
	if len(errs) > 0 {
		return fmt.Errorf("chaos gate: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Render writes the report as a deterministic text table (map keys
// sorted), suitable for byte-comparison across reruns of a deterministic
// campaign.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: %d queries, %d admitted, %d shed, %d crashed\n",
		r.Queries, r.Admitted, r.Shed, r.Crashes)
	for _, k := range sortedKeys(r.ShedByReason) {
		fmt.Fprintf(&b, "  shed/%-12s %d\n", k, r.ShedByReason[k])
	}
	for _, k := range sortedKeys(r.ByMode) {
		fmt.Fprintf(&b, "  mode/%-12s %d\n", k, r.ByMode[k])
	}
	fmt.Fprintf(&b, "  degraded %d (labeled mismatches %d), retries %d, timed out %d\n",
		r.Degraded, r.LabeledMismatches, r.Retries, r.TimedOut)
	fmt.Fprintf(&b, "  wrong answers %d\n", r.WrongAnswers)
	fmt.Fprintf(&b, "  latency units p50/p90/p99 %d/%d/%d, max queue depth %d, horizon %d\n",
		r.P50, r.P90, r.P99, r.MaxQueueDepth, r.Horizon)
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
