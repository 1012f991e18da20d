package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDeriveIDsDeterministic(t *testing.T) {
	if deriveTraceID(7, 1) != deriveTraceID(7, 1) {
		t.Error("same seed+seq minted different trace IDs")
	}
	if deriveTraceID(7, 1) == deriveTraceID(7, 2) {
		t.Error("distinct sequence numbers collided")
	}
	if deriveTraceID(7, 1) == deriveTraceID(8, 1) {
		t.Error("distinct seeds collided")
	}
	seen := map[TraceID]bool{}
	for seq := uint64(0); seq < 1000; seq++ {
		id := deriveTraceID(1, seq)
		if id == 0 {
			t.Fatalf("seq %d minted the zero (W3C-invalid) trace ID", seq)
		}
		if seen[id] {
			t.Fatalf("seq %d repeated trace ID %s", seq, id)
		}
		seen[id] = true
	}
	if deriveSpanID(deriveTraceID(1, 1), 0) == deriveSpanID(deriveTraceID(1, 1), 1) {
		t.Error("span indices collided within one trace")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := deriveTraceID(3, 9), deriveSpanID(deriveTraceID(3, 9), 0)
	h := FormatTraceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q -> (%s, %s, %v), want (%s, %s, true)", h, gotT, gotS, ok, tid, sid)
	}
}

func TestParseTraceparentRejectsInvalid(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-0000000000000000ffffffffffffffff-ffffffffffffffff-01extra-is-fine", // actually valid prefix; see below
		"ff-0000000000000000ffffffffffffffff-ffffffffffffffff-01",              // forbidden version
		"00-00000000000000000000000000000000-ffffffffffffffff-01",              // zero trace ID
		"00-0000000000000000ffffffffffffffff-0000000000000000-01",              // zero span ID
		"00-0000000000000000gfffffffffffffff-ffffffffffffffff-01",              // non-hex
		"00_0000000000000000ffffffffffffffff-ffffffffffffffff-01",              // wrong separator
		"00-0000000000000000FFFFFFFFFFFFFFFF-ffffffffffffffff-01",              // upper-case hex
	}
	for i, s := range bad {
		if i == 2 {
			// Trailing data after a well-formed 55-char prefix is legal W3C
			// (future fields); make sure we accept it rather than reject.
			if _, _, ok := ParseTraceparent(s); !ok {
				t.Errorf("traceparent with trailing fields rejected: %q", s)
			}
			continue
		}
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("invalid traceparent accepted: %q", s)
		}
	}
}

func TestStartTraceContinuesRemote(t *testing.T) {
	c := NewCollector(Config{Seed: 1})
	parent := FormatTraceparent(TraceID(0xabc), SpanID(0xdef))
	a := c.StartTrace(0, "sssp", "t0", parent)
	if a.TraceID() != TraceID(0xabc).String() {
		t.Errorf("remote trace ID not continued: got %s", a.TraceID())
	}
	if a.tr.RemoteParent != SpanID(0xdef) {
		t.Errorf("remote parent span not recorded: %s", a.tr.RemoteParent)
	}
	if a.tr.Spans[0].Parent != SpanID(0xdef) {
		t.Errorf("root span does not parent to the remote span: %+v", a.tr.Spans[0])
	}
	// A malformed header mints a fresh root trace.
	b := c.StartTrace(0, "sssp", "t0", "garbage")
	if b.tr.RemoteParent != 0 || b.TraceID() == a.TraceID() {
		t.Errorf("malformed traceparent did not mint a fresh trace: %+v", b.tr)
	}
}

// TestTailSamplerPolicy is the sampler-correctness contract: every
// flagged trace is kept, healthy traces are kept 1-in-KeepEvery by a
// deterministic hash, and started == sampled + dropped throughout.
func TestTailSamplerPolicy(t *testing.T) {
	c := NewCollector(Config{Seed: 5, KeepEvery: 8, Capacity: 64})
	const queries = 31 // below slowWarmup: the p99 path stays out of the way
	var flagged, kept int
	for i := 0; i < queries; i++ {
		a := c.StartTrace(int64(i), "sssp", "t0", "")
		ref := a.Begin(StageRung, "exact")
		a.End(ref, 10)
		var f Flags
		if i%3 == 0 {
			f = FlagDegraded
			flagged++
		}
		if a.Finish(int64(i)+10, f) {
			kept++
			if f == 0 && !c.keepByHash(a.tr.ID) {
				t.Errorf("healthy trace %s kept against its hash", a.TraceID())
			}
		} else if f != 0 {
			t.Errorf("flagged trace %s dropped by the tail sampler", a.TraceID())
		}
	}
	started, sampled, dropped, _, spans := c.Counters()
	if started != queries {
		t.Errorf("started = %d, want %d", started, queries)
	}
	if sampled != int64(kept) || started != sampled+dropped {
		t.Errorf("counter invariant broken: started %d != sampled %d + dropped %d", started, sampled, dropped)
	}
	if sampled < int64(flagged) {
		t.Errorf("sampled %d < flagged %d: a tail trace was lost", sampled, flagged)
	}
	// Every span is counted, kept or dropped (root + rung per trace).
	if spans != int64(queries)*2 {
		t.Errorf("spans = %d, want %d", spans, queries*2)
	}
	// Finish is idempotent: a second call neither re-counts nor re-keeps.
	a := c.StartTrace(99, "sssp", "t0", "")
	a.Finish(99, FlagDegraded)
	if a.Finish(99, FlagDegraded) {
		t.Error("second Finish re-kept the trace")
	}
	if s2, _, _, _, _ := c.Counters(); s2 != queries+1 {
		t.Errorf("started moved to %d after double Finish, want %d", s2, queries+1)
	}
}

// TestDropDegradedMisconfiguration: the negative-test knob makes the
// sampler treat degraded/timed-out traces as healthy, so at least one
// of them (hash-unlucky) is dropped — the condition the coverage gate
// exists to catch.
func TestDropDegradedMisconfiguration(t *testing.T) {
	c := NewCollector(Config{Seed: 5, KeepEvery: 8, DropDegraded: true})
	var droppedFlagged bool
	for i := 0; i < 31; i++ {
		a := c.StartTrace(int64(i), "sssp", "t0", "")
		if !a.Finish(int64(i), FlagDegraded|FlagTimedOut) {
			droppedFlagged = true
		}
	}
	if !droppedFlagged {
		t.Error("DropDegraded misconfiguration kept every degraded trace (negative test has no teeth)")
	}
	// Shed/error flags are NOT masked: those still always keep.
	a := c.StartTrace(99, "sssp", "t0", "")
	if !a.Finish(99, FlagShed) {
		t.Error("DropDegraded must not mask the shed flag")
	}
}

// TestSlowKeep: after the estimator warms up, a latency outlier is kept
// and stamped FlagSlow even though the query succeeded.
func TestSlowKeep(t *testing.T) {
	c := NewCollector(Config{Seed: 2, KeepEvery: 1 << 30}) // hash keeps ~nothing
	for i := 0; i < 100; i++ {
		a := c.StartTrace(int64(i), "sssp", "t0", "")
		ref := a.Begin(StageRung, "exact")
		a.End(ref, 2)
		a.Finish(int64(i)+2, 0)
	}
	a := c.StartTrace(200, "sssp", "t0", "")
	ref := a.Begin(StageRung, "exact")
	a.End(ref, 1<<20)
	if !a.Finish(200+1<<20, 0) {
		t.Fatal("p99 outlier dropped by the tail sampler")
	}
	if a.tr.Flags&FlagSlow == 0 {
		t.Errorf("outlier kept without FlagSlow: %s", a.tr.Flags)
	}
}

func TestRingEvictionAndSnapshot(t *testing.T) {
	c := NewCollector(Config{Seed: 1, Capacity: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		a := c.StartTrace(int64(i), "sssp", "t0", "")
		ids = append(ids, a.TraceID())
		a.Finish(int64(i), FlagShed) // always sampled
	}
	_, sampled, _, evicted, _ := c.Counters()
	if sampled != 10 || evicted != 6 {
		t.Fatalf("sampled %d evicted %d, want 10 and 6", sampled, evicted)
	}
	snap := c.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d traces, want 4", len(snap))
	}
	for i, tr := range snap {
		if want := ids[6+i]; tr.ID.String() != want {
			t.Errorf("snapshot[%d] = %s, want %s (oldest-first window)", i, tr.ID, want)
		}
	}
}

func TestFlushNewCursor(t *testing.T) {
	c := NewCollector(Config{Seed: 1, Capacity: 8})
	sample := func(n int) {
		for i := 0; i < n; i++ {
			a := c.StartTrace(0, "sssp", "t0", "")
			a.Finish(0, FlagShed)
		}
	}
	var got []*Trace
	sink := func(batch []*Trace) { got = append(got, batch...) }
	sample(3)
	c.FlushNew(sink)
	if len(got) != 3 {
		t.Fatalf("first flush delivered %d traces, want 3", len(got))
	}
	c.FlushNew(sink)
	if len(got) != 3 {
		t.Fatalf("empty flush re-delivered traces: %d", len(got))
	}
	sample(2)
	c.FlushNew(sink)
	if len(got) != 5 {
		t.Fatalf("incremental flush delivered %d total, want 5", len(got))
	}
}

// TestStartFlusherStopJoins is the goroutine-leak test: stop performs a
// final drain, joins the flusher goroutine, and is idempotent.
func TestStartFlusherStopJoins(t *testing.T) {
	c := NewCollector(Config{Seed: 1})
	var got []*Trace
	done := make(chan struct{})
	stop := c.StartFlusher(time.Hour, func(batch []*Trace) { got = append(got, batch...) })
	a := c.StartTrace(0, "sssp", "t0", "")
	a.Finish(0, FlagShed)
	go func() {
		stop()
		stop() // idempotent
		close(done)
	}()
	<-done
	// stop has joined the goroutine, so the final drain is visible with
	// no synchronization beyond the channel above. The hour-long interval
	// guarantees only the shutdown drain could have delivered it.
	if len(got) != 1 {
		t.Fatalf("shutdown drain delivered %d traces, want 1", len(got))
	}
	var nilC *Collector
	nilC.StartFlusher(0, nil)() // no-op, must not panic
}

// TestReportByteDeterminism: two collectors fed the identical sequence
// serialize byte-identical spaa-trace/v1 reports.
func TestReportByteDeterminism(t *testing.T) {
	build := func() []byte {
		c := NewCollector(Config{Seed: 11, KeepEvery: 2})
		for i := 0; i < 40; i++ {
			a := c.StartTrace(int64(i), "sssp", "t1", "")
			r := a.Begin(StageRung, "exact")
			b := a.BeginUnder(r, StageBuild, "sssp compile")
			a.End(b, 7)
			e := a.BeginUnder(r, StageRun, "wavefront")
			a.End(e, int64(i))
			a.EndAt(r)
			var f Flags
			if i%5 == 0 {
				f = FlagDegraded
			}
			a.Finish(int64(i)+7, f)
		}
		data, err := json.Marshal(c.Report())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical campaigns serialized different reports:\n%s\n%s", a, b)
	}
}

func TestZeroWallClock(t *testing.T) {
	c := NewCollector(Config{Seed: 1, Wall: true})
	a := c.StartTrace(1000, "sssp", "t0", "")
	ref := a.Begin(StageRun, "wavefront")
	a.End(ref, 5)
	a.SetWallMicros(ref, 123)
	a.Finish(1010, FlagDegraded)
	r := c.Report()
	if !r.Wall || r.Traces[0].WallMS != 10 || r.Traces[0].Spans[1].WallMicros != 123 {
		t.Fatalf("wall data not recorded in wall mode: %+v", r.Traces[0])
	}
	r.ZeroWallClock()
	if r.Wall || r.Traces[0].Start != 0 || r.Traces[0].WallMS != 0 || r.Traces[0].Spans[1].WallMicros != 0 {
		t.Errorf("ZeroWallClock left wall data: %+v", r.Traces[0])
	}

	// Logical-unit collectors never record wall data in the first place,
	// and ZeroWallClock is a no-op on their reports.
	lc := NewCollector(Config{Seed: 1})
	la := lc.StartTrace(1000, "sssp", "t0", "")
	lref := la.Begin(StageRun, "wavefront")
	la.End(lref, 5)
	la.SetWallMicros(lref, 123) // ignored: not a wall-mode collector
	la.Finish(1010, FlagDegraded)
	lr := lc.Report()
	if lr.Traces[0].WallMS != 0 || lr.Traces[0].Spans[1].WallMicros != 0 {
		t.Errorf("logical collector recorded wall data: %+v", lr.Traces[0])
	}
	before, _ := json.Marshal(lr)
	lr.ZeroWallClock()
	after, _ := json.Marshal(lr)
	if !bytes.Equal(before, after) {
		t.Error("ZeroWallClock mutated a logical-unit report")
	}
}

func TestNilActiveAndCollectorSafe(t *testing.T) {
	var c *Collector
	a := c.StartTrace(0, "sssp", "t0", "")
	if a != nil {
		t.Fatal("nil collector returned a non-nil Active")
	}
	if a.TraceID() != "" || a.Traceparent() != "" {
		t.Error("nil Active mints IDs")
	}
	ref := a.Begin(StageRung, "exact")
	a.End(ref, 1)
	a.EndAt(ref)
	a.EndEngine(ref, 1, 1, 1, 1)
	a.Event(StageBreaker, "x")
	a.SetWallMicros(ref, 1)
	a.PhaseSpan(StageBuild, 0, 1)
	if a.Spans() != nil {
		t.Error("nil Active returned spans")
	}
	if a.Finish(0, FlagShed) {
		t.Error("nil Active finished true")
	}
	if c.Report() != nil || c.Snapshot() != nil {
		t.Error("nil collector produced a report")
	}
	c.FlushNew(func([]*Trace) { t.Error("nil collector flushed") })
}

func TestRenderTraceWaterfall(t *testing.T) {
	c := NewCollector(Config{Seed: 1})
	a := c.StartTrace(0, "sssp", "t1", "")
	a.Event(StageAdmission, "ok")
	r := a.Begin(StageRung, "exact")
	e := a.BeginUnder(r, StageRun, "wavefront")
	a.EndEngine(e, 32, 1, 2, 8)
	a.EndAt(r)
	a.Finish(32, FlagDegraded)
	out := c.Report().Render(0)
	for _, want := range []string{
		"traces: 1 started, 1 sampled",
		"[degraded] dur=32",
		"admission:ok",
		"rung:exact",
		"run:wavefront",
		"steps=1 spikes=2 deliveries=8",
		"#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	tr := &Trace{ID: deriveTraceID(1, 1), Root: deriveSpanID(deriveTraceID(1, 1), 0)}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != tr.ID || got.Root != tr.Root {
		t.Fatalf("ID round trip: got %s/%s, want %s/%s", got.ID, got.Root, tr.ID, tr.Root)
	}
	if !bytes.Contains(data, []byte(`"`+tr.ID.String()+`"`)) {
		t.Errorf("trace ID not serialized as hex string: %s", data)
	}
}
