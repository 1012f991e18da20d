// Fixture for the metricname analyzer. Registry and Label are local
// stubs shaped like internal/metrics' types — the analyzer matches the
// receiver type by name, so the fixture needs no module imports.
package fixture

// Label mirrors metrics.Label.
type Label struct {
	Key, Value string
}

// Registry mirrors the collector accessors of metrics.Registry.
type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...Label) int   { return 0 }
func (r *Registry) Gauge(name, help string, labels ...Label) int     { return 0 }
func (r *Registry) Histogram(name, help string, labels ...Label) int { return 0 }

const metricRuns = "spaa_runs_total"

func goodRegistrations(r *Registry) {
	r.Counter("spaa_snn_spikes_total", "total firings")
	r.Counter(metricRuns, "runs", Label{Key: "workload", Value: "sssp"})
	r.Gauge("spaa_snn_queue_depth", "high water")
	r.Histogram("spaa_run_wall_ms", "wall time", Label{"kind", "soak"})
}

func badNames(r *Registry, dynamic string) {
	r.Counter("spaa-bad-name_total", "dashes")           // want "invalid Prometheus metric name"
	r.Counter("spaa_snn_spikes", "missing suffix")       // want "must end in _total"
	r.Gauge("spaa_queue_total", "gauge with suffix")     // want "must not end in _total"
	r.Histogram("spaa_wall_total", "histogram suffixed") // want "must not end in _total"
	r.Counter(dynamic, "computed name")                  // want "must be a constant string"
	r.Counter("spaa_x_total"+dynamic, "concatenated")    // want "must be a constant string"
}

func badLabels(r *Registry, key string) {
	r.Counter("spaa_a_total", "h", Label{Key: "neuron", Value: "7"})  // want "unbounded cardinality"
	r.Counter("spaa_b_total", "h", Label{Key: "seed", Value: "1"})    // want "unbounded cardinality"
	r.Gauge("spaa_c", "h", Label{"run", "42"})                        // want "unbounded cardinality"
	r.Counter("spaa_d_total", "h", Label{Key: "bad-key", Value: "v"}) // want "invalid Prometheus label key"
	r.Counter("spaa_e_total", "h", Label{Key: key, Value: "v"})       // want "must be a constant string"
	r.Counter("spaa_f_total", "h", Label{Value: "v"})                 // want "does not set Key"
}

// notARegistry checks the receiver-type guard: same method names on an
// unrelated type never fire.
type metricsLike struct{}

func (metricsLike) Counter(name, help string) int { return 0 }

func unrelated(m metricsLike) {
	m.Counter("anything goes here!", "no check")
}
