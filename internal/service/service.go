// Package service is the resilience layer fronting the engine workloads
// behind `spaabench serve`: admission control (bounded work queue with
// load shedding plus per-tenant token-bucket quotas), deadline
// propagation (per-query simulated-step budgets threaded down to
// core.SSSPNetwork.RunBudgeted / snn.Result.TimedOut), seeded retry with
// exponential backoff behind a per-workload circuit breaker, and a
// degradation ladder that composes the fault-tolerance primitives —
// exact spiking run → faults.NMR voting → faults.SelfCheck → classic
// reference → core.ApproxKHop-style truncated answer — tagging every
// response with the rung that served it. The exact rung takes its relay
// netlist from a pool of at most Workers compiled networks keyed by the
// query's graph (pool.go): a query on a pooled graph neither generates
// nor compiles it, and a miss recompiles the least recently returned
// netlist in place. The fault rungs compile the query's graph once, on
// first use, and re-run that network for every NMR replica, vote retry
// and self-check attempt. Only the rungs that read the graph itself
// generate it: the classic bypass, the approx rung, the fault rungs and
// k-hop. Every admission, shed, retry, breaker transition and
// degradation is exported through the spaa_service_* metric families,
// and every timing decision flows through a Clock, so a LogicalClock
// makes whole campaigns byte-reproducible (see chaos.go).
package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/classic"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Metric family names (see docs/OBSERVABILITY.md).
const (
	MetricAdmitted    = "spaa_service_admitted_total"
	MetricShed        = "spaa_service_shed_total"
	MetricRetried     = "spaa_service_retries_total"
	MetricDegraded    = "spaa_service_degraded_total"
	MetricBreakerTx   = "spaa_service_breaker_transitions_total"
	MetricBreaker     = "spaa_service_breaker_state"
	MetricQueueDepth  = "spaa_service_queue_depth"
	MetricLatency     = "spaa_service_latency_units"
	MetricWrongAnswer = "spaa_service_wrong_answers_total"
)

// Ladder rungs / response modes. Exactness guarantees:
//
//	exact     bit-exact (fault-free engine run completed within budget)
//	nmr       majority-voted under faults — plausible, NOT guaranteed
//	selfcheck engine answer verified against the classic reference
//	classic   the classic reference itself (breaker open or retries spent)
//	approx    truncated (1+o(1))-style answer — budget exhausted
//
// Degraded is true for every mode except "exact": the query was served,
// but not by the unassisted neuromorphic fast path. Modes exact,
// selfcheck and classic guarantee reference-equal distances; nmr and
// approx may differ and are always labeled Degraded — that labeling is
// exactly what the chaos gate's zero-silent-wrong-answers assertion
// checks.
const (
	ModeExact     = "exact"
	ModeNMR       = "nmr"
	ModeSelfCheck = "selfcheck"
	ModeClassic   = "classic"
	ModeApprox    = "approx"
	ModeShed      = "shed"
	ModeError     = "error"
)

// Guaranteed reports whether a mode promises reference-equal distances.
func Guaranteed(mode string) bool {
	return mode == ModeExact || mode == ModeSelfCheck || mode == ModeClassic
}

// Config parameterizes a Service.
type Config struct {
	// Workers bounds concurrent engine executions; QueueCap bounds
	// queries waiting for a worker. A query arriving with the queue full
	// is shed with 429 + Retry-After.
	Workers  int
	QueueCap int
	// MaxRetries is the per-query retry budget of the ladder's engine
	// rungs (retry i backs off 2^(i-1) abstract units, charged to the
	// query's cost).
	MaxRetries int
	// NMRReplicas is the voting width of the NMR rung (default 3).
	NMRReplicas int
	// BreakerThreshold consecutive engine failures open the per-workload
	// breaker; it half-opens after BreakerCooldown clock units.
	BreakerThreshold int
	BreakerCooldown  int64
	// QuotaTokens is the per-tenant token-bucket capacity (0 disables
	// quotas); QuotaRefillMilli is the refill rate in milli-tokens per
	// clock unit (1000 = one query per unit).
	QuotaTokens      int64
	QuotaRefillMilli int64
	// Budget is the default per-query deadline in simulated steps,
	// threaded to core.SSSPBudgeted (0 = unlimited). Query.Budget
	// overrides it per query.
	Budget int64
	// Model is the fault model engine runs execute under; Seed anchors
	// the per-query seed derivation (faults.DeriveSeed streams).
	Model faults.Model
	Seed  int64
	// Clock supplies time; nil defaults to a WallClock.
	Clock Clock
	// Trace is the per-query span collector (nil disables tracing — the
	// hot path then pays one nil check per instrumentation site). Wire a
	// trace.NewCollector with Wall=false under a LogicalClock for
	// byte-reproducible campaigns, Wall=true under a WallClock for
	// waterfall timings.
	Trace *trace.Collector
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 8
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.NMRReplicas < 1 {
		c.NMRReplicas = 3
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown < 1 {
		c.BreakerCooldown = 64
	}
	if c.Clock == nil {
		c.Clock = NewWallClock()
	}
	return c
}

// Query is one client request against the service.
type Query struct {
	Workload  string `json:"workload"` // "sssp" or "khop"
	Tenant    string `json:"tenant"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	U         int64  `json:"u"`
	GraphSeed int64  `json:"graph_seed"`
	Src       int    `json:"src"`
	K         int    `json:"k"`      // hop bound (khop and the approx rung)
	Budget    int64  `json:"budget"` // per-query deadline override in simulated steps
	// TraceParent is the caller's W3C traceparent header, if any; when
	// valid the query's trace continues the caller's trace instead of
	// minting a fresh ID. Transport metadata, not part of the query body.
	TraceParent string `json:"-"`
}

// Response is the service's answer, tagged with the ladder rung that
// produced it.
type Response struct {
	Status     int     `json:"status"`
	Workload   string  `json:"workload"`
	Tenant     string  `json:"tenant,omitempty"`
	Mode       string  `json:"mode"`
	Degraded   bool    `json:"degraded"`
	ShedReason string  `json:"shed_reason,omitempty"`
	RetryAfter int64   `json:"retry_after,omitempty"` // clock units
	Retries    int     `json:"retries,omitempty"`
	Backoff    int64   `json:"backoff_units,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Dist       []int64 `json:"dist,omitempty"`
	Reached    int     `json:"reached"`
	SpikeTime  int64   `json:"spike_time"`
	// CostUnits is the simulated cost charged to the query across every
	// rung it touched (spike time plus backoff units) — the service
	// duration the deterministic chaos queueing model uses.
	CostUnits int64  `json:"cost_units"`
	Err       string `json:"error,omitempty"`
	// TraceID is the query's 16-hex trace identifier when tracing is
	// enabled; the HTTP layer surfaces it as X-Spaa-Trace-Id.
	TraceID string `json:"trace_id,omitempty"`
}

// Service is the resilience layer. Construct with New; one Service fronts
// one registry and one engine configuration.
type Service struct {
	cfg    Config
	clock  Clock
	reg    *metrics.Registry
	quotas *quotas

	slots   chan struct{}
	waiting atomic.Int64
	pool    *netPool // the exact rung's compiled netlists

	mu       sync.Mutex
	breakers map[string]*Breaker // guarded by mu
}

// New builds a Service exporting spaa_service_* families into reg.
func New(reg *metrics.Registry, cfg Config) *Service {
	cfg = cfg.withDefaults()
	cfg.Model.Validate()
	s := &Service{
		cfg:      cfg,
		clock:    cfg.Clock,
		reg:      reg,
		quotas:   newQuotas(cfg.QuotaTokens, cfg.QuotaRefillMilli),
		slots:    make(chan struct{}, cfg.Workers),
		pool:     newNetPool(cfg.Workers),
		breakers: make(map[string]*Breaker),
	}
	// Materialize the families so a scrape shows them at zero before the
	// first query (the serve-smoke CI job greps for them).
	for _, w := range []string{"sssp", "khop"} {
		reg.Counter(MetricAdmitted, "queries admitted past the service's admission control", metrics.Label{Key: "workload", Value: w})
		reg.Counter(MetricRetried, "engine-rung retries spent by the degradation ladder", metrics.Label{Key: "workload", Value: w})
		s.breakerGauge(w).Set(int64(BreakerClosed))
	}
	for _, r := range []string{"quota", "queue_full"} {
		reg.Counter(MetricShed, "queries shed by admission control", metrics.Label{Key: "reason", Value: r})
	}
	reg.Gauge(MetricQueueDepth, "queries waiting for a worker slot")
	reg.Counter(MetricWrongAnswer, "chaos-verified guarantee violations (gate requires zero)")
	if cfg.Trace != nil {
		metrics.MaterializeTraceFamilies(reg)
	}
	return s
}

// Registry returns the registry the service exports into.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Clock returns the service clock (the chaos driver needs the
// LogicalClock it installed).
func (s *Service) Clock() Clock { return s.clock }

func (s *Service) breakerGauge(workload string) *metrics.Gauge {
	return s.reg.Gauge(MetricBreaker, "circuit breaker position (0 closed, 1 open, 2 half-open)",
		metrics.Label{Key: "workload", Value: workload})
}

// breaker returns workload's circuit breaker, creating it on first use
// with transitions wired to the spaa_service_breaker_* families.
func (s *Service) breaker(workload string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[workload]
	if b == nil {
		gauge := s.breakerGauge(workload)
		b = NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, func(from, to BreakerState) {
			gauge.Set(int64(to))
			s.reg.Counter(MetricBreakerTx, "circuit breaker state transitions",
				metrics.Label{Key: "workload", Value: workload},
				metrics.Label{Key: "state", Value: to.String()}).Inc()
		})
		s.breakers[workload] = b
	}
	return b
}

// normalize validates and clamps a query in place, returning a client
// error for unusable requests.
func (s *Service) normalize(q *Query) error {
	switch q.Workload {
	case "sssp", "khop":
	default:
		return fmt.Errorf("unknown workload %q (want sssp or khop)", q.Workload)
	}
	if q.Tenant == "" {
		q.Tenant = "default"
	}
	if q.N <= 0 {
		q.N = 64
	}
	if q.N < 2 || q.N > 4096 {
		return fmt.Errorf("n=%d out of range [2,4096]", q.N)
	}
	if q.M <= 0 {
		q.M = 4 * q.N
	}
	if q.M < q.N-1 || q.M > 1<<20 {
		return fmt.Errorf("m=%d out of range [n-1,1<<20]", q.M)
	}
	if q.U <= 0 {
		q.U = 8
	}
	if q.U > 1<<20 {
		return fmt.Errorf("u=%d out of range [1,1<<20]", q.U)
	}
	if q.Src < 0 || q.Src >= q.N {
		return fmt.Errorf("src=%d out of range [0,%d)", q.Src, q.N)
	}
	if q.K <= 0 {
		q.K = 4
	}
	if q.Budget < 0 {
		return fmt.Errorf("budget=%d negative", q.Budget)
	}
	if q.Budget == 0 {
		q.Budget = s.cfg.Budget
	}
	return nil
}

// Do runs one query through the full pipeline: quota check, bounded
// queue, worker slot, breaker-guarded degradation ladder. It blocks while
// queued and never returns nil. This is the live (wall-clock, truly
// concurrent) path; the deterministic chaos driver performs admission
// itself and calls Execute directly.
func (s *Service) Do(q Query) *Response {
	if err := s.normalize(&q); err != nil {
		return &Response{Status: 400, Workload: q.Workload, Tenant: q.Tenant, Mode: ModeError, Err: err.Error()}
	}
	start := s.clock.Now()
	qt := s.startTrace(&q, start)
	if retryAfter, ok := s.TakeQuota(q.Tenant, start); !ok {
		return s.shedTraced(qt, q, "quota", retryAfter, start)
	}
	depth := s.waiting.Add(1)
	s.reg.Gauge(MetricQueueDepth, "queries waiting for a worker slot").Set(depth)
	if depth > int64(s.cfg.QueueCap) {
		s.reg.Gauge(MetricQueueDepth, "queries waiting for a worker slot").Set(s.waiting.Add(-1))
		// Retry once the backlog has likely drained a slot's worth.
		return s.shedTraced(qt, q, "queue_full", s.cfg.BreakerCooldown, start)
	}
	qt.Event(trace.StageAdmission, "ok")
	wref := qt.Begin(trace.StageQueueWait, "slot")
	s.slots <- struct{}{}
	s.reg.Gauge(MetricQueueDepth, "queries waiting for a worker slot").Set(s.waiting.Add(-1))
	defer func() { <-s.slots }()
	now := s.clock.Now()
	waited := now - start
	if waited < 0 {
		waited = 0
	}
	qt.End(wref, waited)
	resp := s.execute(q, now, qt)
	end := s.clock.Now()
	s.observe(resp, end-start)
	s.finishTrace(qt, resp, end)
	return resp
}

// TakeQuota withdraws one query from tenant's token bucket at clock time
// now. Exposed for the deterministic chaos driver, which performs
// admission on the virtual timeline.
func (s *Service) TakeQuota(tenant string, now int64) (retryAfter int64, ok bool) {
	return s.quotas.take(tenant, now)
}

// Shed records a load-shedding decision and builds the 429 response.
func (s *Service) Shed(q Query, reason string, retryAfter, now int64) *Response {
	s.reg.Counter(MetricShed, "queries shed by admission control",
		metrics.Label{Key: "reason", Value: reason}).Inc()
	resp := &Response{
		Status: 429, Workload: q.Workload, Tenant: q.Tenant,
		Mode: ModeShed, ShedReason: reason, RetryAfter: retryAfter,
	}
	s.reg.Histogram(MetricLatency, "per-query latency in clock units by outcome",
		metrics.Label{Key: "outcome", Value: ModeShed}).Observe(0)
	return resp
}

// observe records the latency histogram and admission/degradation
// counters for an executed (non-shed) response.
func (s *Service) observe(resp *Response, latency int64) {
	if latency < 0 {
		latency = 0
	}
	outcome := ModeExact
	if resp.Mode == ModeError {
		outcome = ModeError
	} else if resp.Degraded {
		outcome = "degraded"
	}
	s.reg.Histogram(MetricLatency, "per-query latency in clock units by outcome",
		metrics.Label{Key: "outcome", Value: outcome}).Observe(latency)
}

// Execute runs an admitted query through the breaker-guarded degradation
// ladder at clock time now, recording the engine outcome on the breaker
// and the admitted/retried/degraded counters. Callers are responsible for
// admission (Do, or the chaos driver). Execute mints its own trace; Do
// and the chaos driver instead thread a trace that already covers
// admission and queue wait through the unexported execute.
func (s *Service) Execute(q Query, now int64) *Response {
	if err := s.normalize(&q); err != nil {
		return &Response{Status: 400, Workload: q.Workload, Tenant: q.Tenant, Mode: ModeError, Err: err.Error()}
	}
	qt := s.startTrace(&q, now)
	qt.Event(trace.StageAdmission, "direct")
	resp := s.execute(q, now, qt)
	s.finishTrace(qt, resp, s.clock.Now())
	return resp
}

// execute is the post-admission pipeline for an already-normalized
// query: breaker gate, degradation ladder, outcome counters. qt may be
// nil (tracing disabled).
func (s *Service) execute(q Query, now int64, qt *trace.Active) *Response {
	s.reg.Counter(MetricAdmitted, "queries admitted past the service's admission control",
		metrics.Label{Key: "workload", Value: q.Workload}).Inc()
	resp := &Response{Status: 200, Workload: q.Workload, Tenant: q.Tenant}
	br := s.breaker(q.Workload)
	qg := &queryGraph{q: q}
	before := br.State()
	if br.Allow(now) {
		s.ladder(q, qg, resp, qt)
		br.Record(now, engineServed(resp.Mode))
	} else {
		// Breaker open: bypass the engine entirely and serve the classic
		// host-side reference — correct, just not neuromorphic.
		qt.Event(trace.StageBreaker, "open_bypass")
		rref := qt.Begin(trace.StageRung, ModeClassic)
		s.classicRung(q, qg.get(), resp)
		qt.End(rref, resp.CostUnits)
	}
	if after := br.State(); after != before {
		// The query that trips (or heals) the breaker carries the
		// transition on its own trace — the causal chain the incident
		// timeline needs.
		qt.Event(trace.StageBreaker, before.String()+"->"+after.String())
	}
	resp.Degraded = resp.Mode != ModeExact
	if resp.TimedOut && !Guaranteed(resp.Mode) {
		// Deadline fired and the answer is not reference-equal: surface
		// the timeout to HTTP clients as 504 rather than a clean 200.
		resp.Status = 504
	}
	if resp.Retries > 0 {
		s.reg.Counter(MetricRetried, "engine-rung retries spent by the degradation ladder",
			metrics.Label{Key: "workload", Value: q.Workload}).Add(int64(resp.Retries))
	}
	if resp.Degraded {
		s.reg.Counter(MetricDegraded, "queries served below the exact rung, by ladder mode",
			metrics.Label{Key: "workload", Value: q.Workload},
			metrics.Label{Key: "mode", Value: resp.Mode}).Inc()
	}
	finishDist(resp)
	return resp
}

// engineServed reports whether mode means the spiking engine produced the
// answer (the breaker's definition of success).
func engineServed(mode string) bool {
	return mode == ModeExact || mode == ModeNMR || mode == ModeSelfCheck
}

func buildGraph(q Query) *graph.Graph {
	return graph.RandomGnm(q.N, q.M, graph.Uniform(q.U), q.GraphSeed, true)
}

// querySeed derives the per-query fault seed: deterministic in the
// service seed and the query's own identity, so replaying a campaign
// replays its faults.
func (s *Service) querySeed(q Query) int64 {
	return faults.DeriveSeed(s.cfg.Seed^q.GraphSeed, "service-"+q.Workload, q.Src)
}

func (s *Service) classicRung(q Query, g *graph.Graph, resp *Response) {
	resp.Mode = ModeClassic
	if q.Workload == "khop" {
		resp.Dist = classic.BellmanFordKHop(g, q.Src, q.K, false).Dist
		return
	}
	resp.Dist = classic.Dijkstra(g, q.Src).Dist
}

func finishDist(resp *Response) {
	for _, d := range resp.Dist {
		if d < graph.Inf {
			resp.Reached++
		}
	}
}

// Reference computes the host-side ground truth for a query: Dijkstra
// distances for sssp, k-hop Bellman-Ford for khop. The chaos gate
// compares every guaranteed-mode response against it.
func Reference(q Query) []int64 {
	g := buildGraph(q)
	if q.Workload == "khop" {
		return classic.BellmanFordKHop(g, q.Src, q.K, false).Dist
	}
	return classic.Dijkstra(g, q.Src).Dist
}
