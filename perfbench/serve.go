package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/snn"
)

// serviceConfig is the service every serve workload runs: as many workers
// as closed-loop callers, no quotas, no deadline, tracing off. The breaker
// threshold is out of reach so its wall-clock cooldown never decides which
// rung serves a query; the rung then depends on the query's seed alone.
func serviceConfig(model faults.Model, seed int64) service.Config {
	return service.Config{
		Workers:          clients,
		QueueCap:         8,
		MaxRetries:       1,
		NMRReplicas:      3,
		BreakerThreshold: 1 << 30,
		Model:            model,
		Seed:             seed,
	}
}

// httpService is a service.Service behind an in-process httptest server,
// with a keep-alive client pool sized for the closed-loop callers.
type httpService struct {
	cfg    service.Config
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

func newHTTPService(cfg service.Config) *httpService {
	svc := service.New(metrics.NewRegistry(), cfg)
	return &httpService{
		cfg:    cfg,
		svc:    svc,
		srv:    httptest.NewServer(svc.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
}

func (h *httpService) close() {
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// answer is the part of a service response the benchmark checks.
type answer struct {
	Status  int     `json:"status"`
	Mode    string  `json:"mode"`
	Retries int     `json:"retries"`
	Dist    []int64 `json:"dist"`
	code    int     // HTTP status code
	bytes   int     // response body size
}

// ask sends q as GET /query/sssp and decodes the JSON answer.
func (h *httpService) ask(q service.Query) (answer, error) {
	url := fmt.Sprintf("%s/query/sssp?n=%d&m=%d&u=%d&seed=%d&src=%d",
		h.srv.URL, q.N, q.M, q.U, q.GraphSeed, q.Src)
	resp, err := h.client.Get(url)
	if err != nil {
		return answer{}, fmt.Errorf("query: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, fmt.Errorf("read answer: %w", err)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, fmt.Errorf("decode answer: %w", err)
	}
	a.code, a.bytes = resp.StatusCode, len(body)
	return a, nil
}

// serveBench sends GET /query/sssp from closed-loop callers to a service
// behind the HTTP handler.
type serveBench struct {
	cfg service.Config
	// query is timed op i's query and ref its reference digest; ref runs
	// only after the window.
	query func(i int) service.Query
	ref   func(i int) digest
	// warm is the set-up's warm-up pass, which is also the census and the
	// traced run's walk set.
	warm     []service.Query
	warmWant []digest
	// exactOnly fails any answer not served by the exact rung.
	exactOnly bool
	stats     snn.Stats // fault-free engine totals over warm
	h         *httpService
}

// newServeRepeat is serve_repeat: a fault-free service answering a pool of
// 8 graphs at the service's maximum size, 4 sources each, over and over.
func newServeRepeat(seed int64) *serveBench {
	rng := rand.New(rand.NewSource(seed))
	b := &serveBench{cfg: serviceConfig(faults.Model{}, seed), exactOnly: true}
	const n, graphs, srcs = 4096, 8, 4
	for k := 0; k < graphs; k++ {
		gseed := rng.Int63()
		g := graph.RandomGnm(n, 4*n, graph.Uniform(8), gseed, true)
		ss, want := pickSources(g, srcs, rng)
		for i, src := range ss {
			b.warm = append(b.warm, service.Query{Workload: "sssp", N: n, M: 4 * n, U: 8, GraphSeed: gseed, Src: src})
			b.warmWant = append(b.warmWant, want[i])
			addStats(&b.stats, engineStats(g, src))
		}
	}
	b.query = func(i int) service.Query { return b.warm[i%len(b.warm)] }
	b.ref = func(i int) digest { return b.warmWant[i%len(b.warm)] }
	return b
}

// newServeFaulty is serve_faulty: the same service under dropped spikes,
// with a fresh graph for every query. At DropProb 0.1 no NMR vote and no
// self-check attempt can hold, so every query climbs the ladder through
// the nmr and selfcheck rungs and is served by classic; lower drop rates
// let NMR serve voted answers that differ from the reference.
func newServeFaulty(seed int64) *serveBench {
	b := &serveBench{cfg: serviceConfig(faults.Model{DropProb: 0.1}, seed)}
	fresh := func(stream uint64, i int) service.Query {
		const n = 2048
		gseed := int64(mix64(uint64(seed)^stream<<56^uint64(i)) >> 1)
		return service.Query{Workload: "sssp", N: n, M: 4 * n, U: 8, GraphSeed: gseed, Src: 0}
	}
	for i := 0; i < 16; i++ {
		b.warm = append(b.warm, fresh(1, i))
	}
	b.warmWant = make([]digest, len(b.warm))
	parallel(len(b.warm), func(i int) { b.warmWant[i] = reference(b.warm[i]) })
	for _, q := range b.warm {
		addStats(&b.stats, engineStats(queryGraph(q), q.Src))
	}
	b.query = func(i int) service.Query { return fresh(2, i) }
	b.ref = func(i int) digest { return reference(fresh(2, i)) }
	return b
}

// mix64 is the splitmix64 finalizer: it turns (seed, stream, index) into
// independent graph seeds.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func queryGraph(q service.Query) *graph.Graph {
	return graph.RandomGnm(q.N, q.M, graph.Uniform(q.U), q.GraphSeed, true)
}

func reference(q service.Query) digest {
	return digestOf(classic.Dijkstra(queryGraph(q), q.Src).Dist)
}

// parallel runs f(0..n-1) on as many goroutines as there are callers; it
// is for the benchmark's own work outside the timed windows.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				f(i)
			}
		}(c)
	}
	wg.Wait()
}

// engineStats runs one fault-free BuildSSSP + Run for the census.
func engineStats(g *graph.Graph, src int) snn.Stats {
	res, err := core.BuildSSSP(g).Run(src, -1)
	if err != nil {
		panic(err) // fault-free all-destination runs never time out
	}
	return res.Stats
}

func (b *serveBench) clients() int { return clients }

// setup builds the service and the server and sends the warm-up pass, one
// query at a time.
func (b *serveBench) setup() (census, error) {
	b.h = newHTTPService(b.cfg)
	c := census{stats: b.stats}
	for i, q := range b.warm {
		a, err := b.h.ask(q)
		if err != nil {
			return c, err
		}
		c.modes = append(c.modes, a.Mode)
		c.retries += a.Retries
		if !b.accepts(a) || !b.warmWant[i].matches(a.Dist) {
			c.failed++
		}
	}
	return c, nil
}

// accepts checks what an answer must satisfy besides its distances: HTTP
// and service status 200 (sheds and timeouts fail) and, where required,
// the exact rung.
func (b *serveBench) accepts(a answer) bool {
	return a.code == http.StatusOK && a.Status == http.StatusOK &&
		(!b.exactOnly || a.Mode == service.ModeExact)
}

func (b *serveBench) op(i int, tr *tracer) sample {
	t0 := time.Now()
	a, err := b.h.ask(b.query(i))
	t1 := time.Now()
	tr.add("http.roundtrip", i, -1, t0, t1)
	s := sample{lat: t1.Sub(t0), traced: tr != nil, bytes: a.bytes, mode: a.Mode, key: i}
	s.ok = err == nil && b.accepts(a)
	s.got = digestOf(a.Dist)
	s.pause = time.Since(t1)
	return s
}

func (b *serveBench) verify(ss []sample) {
	parallel(len(ss), func(j int) {
		if ss[j].got != b.ref(ss[j].key) {
			ss[j].ok = false
		}
	})
}

func (b *serveBench) walk(tr *tracer) ([]walkSample, error) {
	var out []walkSample
	for i, q := range b.warm {
		w, err := walk(tr, -1-i, b.h, q)
		if err != nil {
			return out, err
		}
		out = append(out, w)
	}
	return out, nil
}

func (b *serveBench) close() {
	if b.h != nil {
		b.h.close()
		b.h = nil
	}
}
