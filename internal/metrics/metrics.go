// Package metrics is the live half of the observability story: a
// stdlib-only, concurrency-safe metrics registry exposed in Prometheus
// text exposition format. Where internal/telemetry turns one run into an
// after-the-fact artifact (manifest, trace), this package aggregates the
// same cost measures — spikes, deliveries, steps, ℓ1 movement, CONGEST
// bits, chip crossings — across many concurrent runs into scrape-able
// counters, gauges, and log-bucketed histograms, the operational view a
// production deployment serving sustained traffic needs.
//
// The write path is lock-free: every collector is a fixed set of atomic
// words, so concurrent runs fold their manifests without contention (see
// Bridge.Fold). Registration takes a registry-level mutex and is expected
// at setup time only.
//
// Metric names follow the Prometheus conventions and the repository
// scheme documented in docs/OBSERVABILITY.md: `spaa_` prefix, `_total`
// suffix on counters, base units in the name. The spaavet `metricname`
// analyzer enforces the naming rules statically.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// validName is the Prometheus metric-name charset; validLabel the
// label-key charset (no colons).
var (
	validName  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Label is one metric label pair. Label keys must be drawn from a small
// bounded set (workload names, op kinds, routes) — never per-entity
// identifiers like neuron or vertex ids, which would explode series
// cardinality. The spaavet metricname analyzer denylists the known
// unbounded keys.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric (atomic).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta; negative deltas panic (counters
// are monotone by definition — use a Gauge for values that can fall).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: negative counter delta %d", delta))
	}
	c.v.Add(delta)
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (atomic).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add accumulates delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update MaxQueueDepth-style signals need, safe under
// concurrent writers.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// collector is one registered series: its label signature plus the
// backing instrument (exactly one of counter/gauge/histogram non-nil).
type collector struct {
	signature string // canonical sorted `k="v"` list, "" when unlabelled
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name, help, typ string
	series          map[string]*collector
}

// Registry holds named metric families and renders them in Prometheus
// text format. The zero value is not usable; call NewRegistry. All
// methods are safe for concurrent use; the returned collectors write
// lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature renders labels in canonical (key-sorted) order. Registration
// is setup-time, so the sort and allocations here are off the hot path.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validLabel.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabelValue(l.Value))
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes (backslash,
// quote, newline); %q above handles quote/backslash, so only newlines
// need normalizing first.
func escapeLabelValue(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register resolves (name, signature) to its collector, creating family
// and series on first use. Type or help mismatches on an existing name
// panic: collector identity is a programming invariant, not runtime
// input.
func (r *Registry) register(name, help, typ string, labels []Label) *collector {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*collector)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.typ, typ))
	}
	c := f.series[sig]
	if c == nil {
		c = &collector{signature: sig}
		switch typ {
		case "counter":
			c.counter = &Counter{}
		case "gauge":
			c.gauge = &Gauge{}
		case "histogram":
			c.histogram = newHistogram()
		}
		f.series[sig] = c
	}
	return c
}

// Counter returns the counter registered under name and labels, creating
// it on first use. Counter names end in `_total` by convention (enforced
// by the spaavet metricname analyzer).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels).counter
}

// Gauge returns the gauge registered under name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels).gauge
}

// Histogram returns the log-bucketed histogram registered under name and
// labels (bucket bounds are powers of two; see histogram.go).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels).histogram
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): `# HELP` / `# TYPE` headers,
// families sorted by name, series within a family sorted by label
// signature, histogram buckets cumulative with an explicit `+Inf`. The
// output is deterministic for a given registry state, so scrapes can be
// diffed and golden-tested.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the families and their series under the lock: register
	// adds series to a family's map while scrapes render.
	type snapshot struct {
		f      *family
		series []*collector
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	//lint:deterministic family names are sorted below before rendering
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]snapshot, len(names))
	for i, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		//lint:deterministic label signatures are sorted below before rendering
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		snaps[i] = snapshot{f: f, series: make([]*collector, len(sigs))}
		for j, sig := range sigs {
			snaps[i].series[j] = f.series[sig]
		}
	}
	r.mu.RUnlock()

	for _, s := range snaps {
		f := s.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, c := range s.series {
			if err := writeSeries(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, c *collector) error {
	switch {
	case c.counter != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, c.signature, ""), c.counter.Value())
		return err
	case c.gauge != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, c.signature, ""), c.gauge.Value())
		return err
	case c.histogram != nil:
		return c.histogram.write(w, f.name, c.signature)
	}
	return nil
}

// seriesName renders name{labels} with an optional extra label (the
// histogram `le` bound) appended last, matching Prometheus convention.
func seriesName(name, sig, extra string) string {
	if sig == "" && extra == "" {
		return name
	}
	inner := sig
	if extra != "" {
		if inner != "" {
			inner += ","
		}
		inner += extra
	}
	return name + "{" + inner + "}"
}

// Handler returns an http.Handler serving the registry in exposition
// format — the /metrics endpoint of `spaabench serve`.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The scrape is a point-in-time snapshot; errors here mean the
		// client hung up, which needs no handling.
		_ = r.WritePrometheus(w)
	})
}
