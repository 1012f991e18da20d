// Command perfbench is the repository's benchmark. It drives the program
// from outside, through the public functions of graph, core, snn, classic,
// faults and service and through service.Handler over HTTP, checks every
// answer against a classic Dijkstra reference computed outside the timed
// windows, and prints one JSON result line. README.md describes the
// workloads and metrics; run it with
//
//	bash perfbench/run.sh --workload solve_random --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/snn"
)

const (
	// clients is the number of closed-loop callers of the serve workloads,
	// and the service's worker count.
	clients = 2
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 5
)

// bench is one workload.
type bench interface {
	// setup is the timed set-up body: input generation, construction and a
	// warm-up pass over every distinct input. It returns the warm-up
	// pass's census, which is exact for a seed.
	setup() (census, error)
	clients() int
	// op runs timed op i from one caller, traced when tr is non-nil. It
	// checks what needs no reference (errors, status, rung) and records a
	// digest of the answer.
	op(i int, tr *tracer) sample
	// verify compares the recorded answers with their Dijkstra references,
	// after the timed window.
	verify(ss []sample)
	// walk replays sampled service queries through their layers one at a
	// time (traced run only).
	walk(tr *tracer) ([]walkSample, error)
	// close releases what the last setup built.
	close()
}

var workloads = []struct {
	name string
	make func(seed int64) bench
}{
	{"solve_random", func(seed int64) bench { return newSolve(seed, 100_000, 400_000, 8, 4) }},
	{"solve_wide_delay", func(seed int64) bench { return newSolve(seed, 20_000, 60_000, 65536, 8) }},
	{"serve_repeat", func(seed int64) bench { return newServeRepeat(seed) }},
	{"serve_faulty", func(seed int64) bench { return newServeFaulty(seed) }},
}

// addStats adds one run's engine counts to a total; the queue depth is the
// highest of any run.
func addStats(t *snn.Stats, s snn.Stats) {
	t.Spikes += s.Spikes
	t.Deliveries += s.Deliveries
	t.Steps += s.Steps
	t.SilentStepsSkipped += s.SilentStepsSkipped
	t.MaxQueueDepth = max(t.MaxQueueDepth, s.MaxQueueDepth)
}

// census is what a warm-up pass did. Every field is exact for a seed.
type census struct {
	modes   []string // ladder rung of each warm-up query (serve workloads)
	retries int
	stats   snn.Stats // fault-free engine totals over the warm-up inputs
	failed  int       // warm-up answers that differ from the reference
}

// sample is one timed op.
type sample struct {
	lat    time.Duration
	ok     bool
	key    int    // which input the op used
	got    digest // the answer's distances
	traced bool
	// pause is the time the benchmark's own work (settling the garbage
	// collector, checking the answer) held the caller after the op.
	pause  time.Duration
	bytes  int           // response body size (serve workloads)
	mode   string        // ladder rung (serve workloads)
	engine *engineSample // layer split of a traced solve op
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	spans := flag.String("spans", "", "directory the traced run writes its spans to (empty: keep them in memory)")
	flag.Parse()

	var mk func(int64) bench
	for _, w := range workloads {
		if w.name == *name {
			mk = w.make
		}
	}
	if mk == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(*name, mk(*seed), *seed, *seconds, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run on b, whose inputs and references are
// already generated.
func run(name string, b bench, seed int64, seconds int, traced bool, spanDir string) (*result, error) {
	// Set-up, repeated; setup_s is the median. Every repeat's census must
	// agree with the first: a rung mix that differs between repeats of the
	// same seed is flagged.
	var setups []float64
	var first census
	rungMismatch, warmFailed := 0, 0
	for r := 0; r < setupReps; r++ {
		b.close()
		runtime.GC()
		t := time.Now()
		c, err := b.setup()
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warmFailed += c.failed
		if r == 0 {
			first = c
		} else if strings.Join(c.modes, ",") != strings.Join(first.modes, ",") {
			rungMismatch++
		}
	}
	defer b.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC()
	win := closedLoop(b, time.Duration(seconds)*time.Second, tr)
	b.verify(win.samples)

	res := &result{Attempted: len(win.samples), Metrics: map[string]metric{}}
	for _, s := range win.samples {
		if !s.ok {
			res.Failed++
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no op completed in the window")
	}

	var walks []walkSample
	walkFailed := 0
	if traced {
		var err error
		if walks, err = b.walk(tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: walk:", err)
			walkFailed++
		}
		for i, w := range walks {
			if i < len(first.modes) && w.mode != first.modes[i] {
				rungMismatch++
			}
		}
		if spanDir != "" {
			if err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err != nil {
				return nil, err
			}
		}
	}
	if warmFailed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d warm-up answers differ from the reference\n", warmFailed)
	}
	if rungMismatch > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: FLAG: the rung mix differs between %d repeats of the same queries\n", rungMismatch)
	}
	res.Correct = res.Failed == 0 && warmFailed == 0 && walkFailed == 0

	lats := make([]float64, 0, len(win.samples))
	for _, s := range win.samples {
		lats = append(lats, ms(s.lat))
	}
	printProvenance(name, seed, seconds, traced, setups, first, rungMismatch, win, lats)

	if !traced {
		put(res, "setup_s", median(setups), "s")
		put(res, "latency_ms_p50", quantile(lats, 0.5), "ms")
		put(res, "latency_ms_p90", quantile(lats, 0.9), "ms")
		put(res, "throughput_per_s", float64(res.Attempted-res.Failed)/win.busy.Seconds(), "1/s")
		put(res, "alloc_mb_per_op", mb(win.alloc)/float64(res.Attempted), "MB")
		put(res, "peak_rss_mb", win.residentP90, "MB")
		return res, nil
	}
	layerMetrics(res, b, win, walks, first, rungMismatch)
	return res, nil
}

// window is the outcome of the timed closed loop.
type window struct {
	samples []sample
	wall    time.Duration
	// busy is the wall time minus the pauses the benchmark's own work put
	// on the callers, averaged over callers.
	busy     time.Duration
	alloc    uint64 // bytes allocated during the window
	gcCycles uint32 // collections the runtime started itself
	gcPause  time.Duration
	// residentP90 is the 90th percentile of resident memory sampled
	// during the window, heapPeak the most heap object MB seen.
	residentP90 float64
	heapPeak    float64
}

// closedLoop runs b's callers for d: each sends its next op only after the
// previous one has been answered. Odd ops are traced when tr is non-nil.
func closedLoop(b bench, d time.Duration, tr *tracer) window {
	var next atomic.Int64
	per := make([][]sample, b.clients())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := sampleMemory()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				var t *tracer
				if i%2 == 1 {
					t = tr
				}
				per[c] = append(per[c], b.op(i, t))
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	w.residentP90, w.heapPeak = mem.finish()
	var paused time.Duration
	for _, ss := range per {
		for _, s := range ss {
			paused += s.pause
		}
		w.samples = append(w.samples, ss...)
	}
	w.busy = w.wall - paused/time.Duration(len(per))
	return w
}

// layerMetrics fills the traced run's per-layer metrics. Layers on the
// workload's own path come from its traced ops; the others come from the
// layer walk.
func layerMetrics(res *result, b bench, win window, walks []walkSample, c census, rungMismatch int) {
	var ops []engineSample // traced solve ops
	var traced, untraced, respKB []float64
	for _, s := range win.samples {
		if !s.traced {
			untraced = append(untraced, ms(s.lat))
			continue
		}
		traced = append(traced, ms(s.lat))
		if s.engine != nil {
			ops = append(ops, *s.engine)
		}
	}
	for _, s := range win.samples {
		respKB = append(respKB, float64(s.bytes)/1024)
	}
	engines := ops
	gen := median(values(walks, func(w *walkSample) float64 { return ms(w.gen) }))
	gcPerOp := float64(win.gcCycles) / float64(len(win.samples))
	pausePerOp := ms(win.gcPause) / float64(len(win.samples))
	if sb, ok := b.(*solveBench); ok {
		// The solve path is graph, core and snn: measure them on the
		// workload's own graph and ops. Its ops settle the collector
		// between them, so count only collections inside traced ops.
		gen = median(values(sb.gens, func(d *time.Duration) float64 { return ms(*d) }))
		gcPerOp = mean(values(ops, func(e *engineSample) float64 { return float64(e.gcCycles) }))
		pausePerOp = mean(values(ops, func(e *engineSample) float64 { return ms(e.gcPause) }))
		respKB = nil
		for _, w := range walks {
			respKB = append(respKB, float64(w.respBytes)/1024)
		}
	} else {
		engines = nil
		for _, w := range walks {
			engines = append(engines, w.engine)
		}
	}
	// The census, where there is one, is the exact-repeat source of the
	// rung counts: the serve workloads' warm-up pass over their own queries.
	modes := map[string]float64{}
	retries := 0.0
	for _, w := range walks {
		modes[w.mode]++
		retries += float64(w.retries)
	}
	if len(c.modes) > 0 {
		modes = map[string]float64{}
		for _, m := range c.modes {
			modes[m]++
		}
		retries = float64(c.retries)
	}

	put(res, "graph.gen_ms", gen, "ms")
	put(res, "core.build_ms", median(values(engines, func(e *engineSample) float64 { return ms(e.build()) })), "ms")
	put(res, "core.build_alloc_mb", median(values(engines, func(e *engineSample) float64 { return mb(e.buildAlloc) })), "MB")
	put(res, "core.build_mallocs", median(values(engines, func(e *engineSample) float64 { return float64(e.buildMallocs) })), "count")
	put(res, "snn.run_ms", median(values(engines, func(e *engineSample) float64 { return ms(e.run()) })), "ms")
	put(res, "snn.run_alloc_mb", median(values(engines, func(e *engineSample) float64 { return mb(e.runAlloc) })), "MB")
	put(res, "snn.run_mallocs", median(values(engines, func(e *engineSample) float64 { return float64(e.runMallocs) })), "count")
	put(res, "snn.deliveries_per_ms", median(values(engines, func(e *engineSample) float64 {
		return float64(e.stats.Deliveries) / ms(e.run())
	})), "1/ms")
	put(res, "core.digest_ms", median(values(engines, func(e *engineSample) float64 { return ms(e.digest()) })), "ms")
	st := c.stats
	put(res, "snn.steps", float64(st.Steps), "count")
	put(res, "snn.spikes", float64(st.Spikes), "count")
	put(res, "snn.deliveries", float64(st.Deliveries), "count")
	put(res, "snn.max_queue_depth", float64(st.MaxQueueDepth), "count")
	put(res, "snn.silent_steps", float64(st.SilentStepsSkipped), "count")
	put(res, "snn.deliveries_per_spike", float64(st.Deliveries)/float64(max(st.Spikes, 1)), "ratio")
	put(res, "classic.dijkstra_ms", median(values(walks, func(w *walkSample) float64 { return ms(w.dijkstra) })), "ms")
	put(res, "faults.nmr_ms", median(values(walks, func(w *walkSample) float64 { return ms(w.faults) })), "ms")
	put(res, "faults.replica_runs_per_query", mean(values(walks, func(w *walkSample) float64 { return float64(w.replicaRuns) })), "count")
	put(res, "service.execute_ms", median(values(walks, func(w *walkSample) float64 { return ms(w.execute) })), "ms")
	put(res, "service.admission_ms", median(values(walks, func(w *walkSample) float64 { return ms(w.do - w.execute) })), "ms")
	put(res, "service.ladder_self_ms", median(values(walks, func(w *walkSample) float64 {
		engine := w.engine.total()
		if w.faulty {
			engine = w.faults
		}
		return ms(w.execute - w.gen - engine)
	})), "ms")
	total := 0.0
	for _, m := range []string{service.ModeExact, service.ModeNMR, service.ModeSelfCheck, service.ModeClassic, service.ModeApprox} {
		put(res, "service.mode."+m, modes[m], "count")
		total += modes[m]
	}
	put(res, "service.retries", retries, "count")
	put(res, "service.exact_frac", modes[service.ModeExact]/math.Max(total, 1), "ratio")
	put(res, "service.rung_mix_mismatch", float64(rungMismatch), "count")
	put(res, "http.self_ms", median(values(walks, func(w *walkSample) float64 { return ms(w.http - w.do) })), "ms")
	put(res, "http.response_kb", mean(respKB), "KB")
	put(res, "runtime.gc_cycles_per_op", gcPerOp, "count")
	put(res, "runtime.gc_pause_ms", pausePerOp, "ms")
	put(res, "runtime.heap_peak_mb", win.heapPeak, "MB")
	put(res, "trace.overhead_ms", median(traced)-median(untraced), "ms")
}

// values applies f to every element of xs.
func values[T any](xs []T, f func(*T) float64) []float64 {
	v := make([]float64, len(xs))
	for i := range xs {
		v[i] = f(&xs[i])
	}
	return v
}

// printProvenance prints, ahead of the result line, what a reader needs to
// interpret and reproduce the run: the machine, the sample counts and the
// exact-repeat census.
func printProvenance(name string, seed int64, seconds int, traced bool, setups []float64, c census, rungMismatch int, win window, lats []float64) {
	modes := map[string]int{}
	for _, m := range c.modes {
		modes[m]++
	}
	loopModes := map[string]int{}
	for _, s := range win.samples {
		if s.mode != "" {
			loopModes[s.mode]++
		}
	}
	p := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"machine": map[string]any{
			"cpu": cpuModel(), "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		"setup_s":         setups,
		"ops":             len(lats),
		"ops_beyond_p90":  len(lats) - int(math.Ceil(0.9*float64(len(lats)))),
		"window_s":        win.wall.Seconds(),
		"loop_modes":      loopModes,
		"census_modes":    modes,
		"census_retries":  c.retries,
		"census_snn":      c.stats,
		"rung_mix_repeat": rungMismatch == 0,
	}
	out, err := json.Marshal(map[string]any{"perfbench": p})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memSampler reads the Go runtime's memory every 10 ms while the window
// runs. Resident memory is what the runtime has mapped minus what it has
// returned to the OS.
type memSampler struct {
	stop, done chan struct{}
	resident   []float64 // MB, one per sample
	heap       float64   // highest heap object MB
}

func sampleMemory() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []rtmetrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			m.resident = append(m.resident, mb(s[0].Value.Uint64()-s[1].Value.Uint64()))
			m.heap = max(m.heap, mb(s[2].Value.Uint64()))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler. It returns the level resident memory stayed
// under for 90% of the samples, and the highest heap object MB. The
// resident maximum itself is set by single GC-timing accidents: it moved
// by up to a quarter between runs of identical work.
func (m *memSampler) finish() (residentP90, heapPeak float64) {
	close(m.stop)
	<-m.done
	return quantile(m.resident, 0.9), m.heap
}

func put(res *result, name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
