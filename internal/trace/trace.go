// Package trace is the causal observability layer: one deterministic
// trace per service query, spanning HTTP admission → quota decision →
// queue wait → degradation-ladder rung → engine build/run phases →
// engine step sub-events, exported as the wall-free spaa-trace/v1
// manifest section, as Chrome trace_event waterfalls (via telemetry),
// and as the /traces endpoint + spaa_trace_* Prometheus families (via
// metrics).
//
// Determinism is the design center, exactly as for the rest of the
// repo's observability stack: trace and span IDs are splitmix64-derived
// from a seed and a sequence number, span timelines are logical-unit
// cursors (the same cost units the service's LogicalClock runs on), and
// wall-clock readings appear only as optional refinement fields
// (Span.WallMicros, Trace.WallMS) that Report.ZeroWallClock strips —
// so a deterministic chaos campaign serializes byte-identical traces
// across reruns, the property the trace-smoke CI gate byte-compares.
//
// Sampling is tail-based: the decision is made at Finish, when the
// query's outcome is known. Shed, degraded, timed-out, errored, and
// p99-slow queries are always kept; healthy fast queries are kept at a
// deterministic 1-in-KeepEvery hash of the trace ID. Sampled traces
// land in a bounded lock-free ring (overwrite-oldest); the started =
// sampled + dropped counter invariant is the tail-sampler correctness
// contract the deterministic soak test asserts.
//
// The package is a stdlib-only leaf: service, telemetry, metrics,
// harness and cmd/spaabench import it, never the reverse. Run spans
// carry engine totals read from the run's snn.Stats after the run
// (Active.EndEngine), so tracing attaches nothing to the engine's step
// loop.
package trace

import (
	"fmt"
	"strconv"
)

// Span stage vocabulary. Stages feed bounded Prometheus labels
// (spaa_trace_stage_units), so new stages must stay a small fixed set.
const (
	StageQuery     = "query"      // root span, one per trace
	StageAdmission = "admission"  // quota decision (detail: "ok" or the refusal reason)
	StageQueueWait = "queue_wait" // time between arrival and a worker slot
	StageShed      = "shed"       // admission refused (detail: reason)
	StageBreaker   = "breaker"    // circuit-breaker event (detail: transition)
	StageRung      = "rung"       // one degradation-ladder rung (detail: mode)
	StageRetry     = "retry"      // backoff before a reseeded engine attempt
	StageBuild     = "build"      // netlist construction (the O(n+m) load charge)
	StageRun       = "run"        // the spiking simulation itself
)

// Flags records the query outcomes the tail sampler always keeps.
type Flags uint8

const (
	// FlagShed marks a query refused by admission control.
	FlagShed Flags = 1 << iota
	// FlagDegraded marks a query served below the exact rung.
	FlagDegraded
	// FlagTimedOut marks a query whose deadline fired mid-run.
	FlagTimedOut
	// FlagError marks a crashed or malformed query.
	FlagError
	// FlagSlow marks a trace kept by the p99 latency estimator (set by
	// the sampler, not the caller).
	FlagSlow
)

// String renders the flag set as a stable comma-joined list ("-" when
// empty), for waterfall headers and logs.
func (f Flags) String() string {
	if f == 0 {
		return "-"
	}
	names := [...]struct {
		bit  Flags
		name string
	}{
		{FlagShed, "shed"}, {FlagDegraded, "degraded"},
		{FlagTimedOut, "timed_out"}, {FlagError, "error"}, {FlagSlow, "slow"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit == 0 {
			continue
		}
		if out != "" {
			out += ","
		}
		out += n.name
	}
	return out
}

// TraceID is a 64-bit splitmix64-derived trace identifier, serialized
// as 16 lower-case hex digits (the low half of a W3C trace-id).
type TraceID uint64

// SpanID is a 64-bit span identifier, serialized as 16 hex digits.
type SpanID uint64

// String renders the ID as 16 hex digits.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as 16 hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a quoted hex string.
func (id TraceID) MarshalJSON() ([]byte, error) { return hexJSON(uint64(id)), nil }

// MarshalJSON renders the ID as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return hexJSON(uint64(id)), nil }

// UnmarshalJSON parses a quoted hex string.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	v, err := hexUnJSON(b)
	*id = TraceID(v)
	return err
}

// UnmarshalJSON parses a quoted hex string.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	v, err := hexUnJSON(b)
	*id = SpanID(v)
	return err
}

func hexJSON(v uint64) []byte {
	return []byte(`"` + fmt.Sprintf("%016x", v) + `"`)
}

func hexUnJSON(b []byte) (uint64, error) {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return 0, fmt.Errorf("trace: id not a JSON string: %w", err)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad hex id %q: %w", s, err)
	}
	return v, nil
}

// Span is one timed stage of a query. Start and Dur are in logical
// units on a cursor timeline relative to the trace start — under the
// service's LogicalClock they are the same cost units the virtual chaos
// timeline runs on, making serialized spans byte-deterministic.
// WallMicros is the optional wall-clock refinement recorded only by
// wall-mode collectors (live serving) and stripped by
// Report.ZeroWallClock.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Stage  string `json:"stage"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	// WallMicros refines Dur with measured wall time (live mode only).
	WallMicros int64 `json:"wall_us,omitempty"`
	// Engine sub-event totals from the run's snn.Stats (run spans
	// only).
	Steps      int64 `json:"steps,omitempty"`
	Spikes     int64 `json:"spikes,omitempty"`
	Deliveries int64 `json:"deliveries,omitempty"`
}

// Trace is one query's complete span tree. Spans[0] is always the root
// (StageQuery); every other span parents to it unless opened with
// BeginUnder.
type Trace struct {
	ID   TraceID `json:"id"`
	Root SpanID  `json:"root"`
	// RemoteParent is the caller's span ID when the query arrived with a
	// W3C traceparent header (distributed-trace continuation).
	RemoteParent SpanID `json:"remote_parent,omitempty"`
	Workload     string `json:"workload"`
	Tenant       string `json:"tenant,omitempty"`
	// Start is the clock reading at admission (virtual units under a
	// LogicalClock, ms under a WallClock — zeroed by ZeroWallClock in
	// wall mode).
	Start int64 `json:"start"`
	// Dur is the total logical-unit cost of the query (the cursor at
	// Finish).
	Dur   int64 `json:"dur"`
	Flags Flags `json:"flags,omitempty"`
	// WallMS is the measured wall duration (live mode only).
	WallMS int64  `json:"wall_ms,omitempty"`
	Spans  []Span `json:"spans"`
}

// SpanByStage returns the first span with the given stage (nil when
// absent) — the coverage gate's lookup.
func (t *Trace) SpanByStage(stage string) *Span {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if t.Spans[i].Stage == stage {
			return &t.Spans[i]
		}
	}
	return nil
}
