package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	if r.Counter("a") != a {
		t.Fatal("Counter should return the same handle for the same name")
	}
	a.Inc()
	a.Add(4)
	external := &Counter{}
	external.Add(7)
	r.Register("ext", external)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	// Sorted by name: "a" then "ext".
	if snap[0].Name != "a" || snap[0].Value != 5 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "ext" || snap[1].Value != 7 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
}

func TestCounterRaceClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

func TestSearchCountersIdentitySnapshot(t *testing.T) {
	r := NewRegistry()
	sc := NewSearchCounters(r)
	sc.Generated.Add(10)
	sc.PrunedOrdering.Add(2)
	sc.PrunedTiling.Add(3)
	sc.PrunedUnrolling.Add(1)
	sc.Deduped.Add(1)
	sc.Evaluated.Add(3)
	st := SnapshotSearch(r)
	if st.Pruned() != 6 {
		t.Errorf("Pruned() = %d, want 6", st.Pruned())
	}
	if st.Generated != st.Pruned()+st.Deduped+st.Evaluated+st.Skipped {
		t.Errorf("identity violated: %+v", st)
	}
}

// TestSearchFieldsCoverSearchStats: every SearchStats field — found by
// reflection, so one added later is covered without touching this test —
// round-trips through SearchCounters.Add and SnapshotSearch, twice to show
// Add accumulates, and every SearchCounters handle is registered.
func TestSearchFieldsCoverSearchStats(t *testing.T) {
	var in SearchStats
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(100 + i))
	}
	r := NewRegistry()
	sc := NewSearchCounters(r)
	h := reflect.ValueOf(sc).Elem()
	for i := 0; i < h.NumField(); i++ {
		if h.Field(i).IsNil() {
			t.Errorf("SearchCounters.%s is not registered", h.Type().Field(i).Name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	sc.Add(in)
	if got := SnapshotSearch(r); got != in {
		t.Errorf("round trip lost a field:\n got %+v\nwant %+v", got, in)
	}
	sc.Add(in)
	got := reflect.ValueOf(SnapshotSearch(r))
	for i := 0; i < got.NumField(); i++ {
		if want := 2 * uint64(100+i); got.Field(i).Uint() != want {
			t.Errorf("%s = %d after two Adds, want %d", got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
	if len(r.Snapshot()) != v.NumField() {
		t.Errorf("%d counters registered for %d SearchStats fields", len(r.Snapshot()), v.NumField())
	}
}

func TestTraceSpansExportChromeJSON(t *testing.T) {
	tr := NewTrace()
	root := tr.StartRoot("optimize")
	child := root.Child("level 0").Arg("beam", 24)
	time.Sleep(time.Millisecond)
	child.End()
	child.End() // idempotent
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["name"] == "level 0" {
				if dur, _ := ev["dur"].(float64); dur <= 0 {
					t.Errorf("child span has dur %v, want > 0", ev["dur"])
				}
				args, _ := ev["args"].(map[string]any)
				if args["beam"] != float64(24) {
					t.Errorf("child args = %v", args)
				}
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2 (idempotent End)", complete)
	}
	if meta != 1 {
		t.Errorf("%d metadata events, want 1 thread_name", meta)
	}
}

func TestNilTraceAndSpanAreInert(t *testing.T) {
	var tr *Trace
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil trace should yield nil span")
	}
	sp.Child("y").Arg("k", 1).End() // must not panic
	sp.End()
	if tr.Events() != 0 {
		t.Error("nil trace should report 0 events")
	}
}

func TestStartSpanContextThreading(t *testing.T) {
	ctx := context.Background()
	if c2, sp := StartSpan(ctx, "no trace"); sp != nil || c2 != ctx {
		t.Fatal("StartSpan without a trace must be a no-op")
	}
	if Enabled(ctx) {
		t.Fatal("Enabled on bare context")
	}
	tr := NewTrace()
	ctx = WithTrace(ctx, tr)
	if TraceOf(ctx) != tr || !Enabled(ctx) {
		t.Fatal("WithTrace/TraceOf round trip failed")
	}
	ctx1, root := StartSpan(ctx, "root")
	if root == nil || SpanOf(ctx1) != root {
		t.Fatal("root span not installed in context")
	}
	_, child := StartSpanf(ctx1, "child %d", 7)
	if child == nil || child.tid != root.tid {
		t.Fatal("child should share the root's thread row")
	}
	child.End()
	root.End()
	// 1 thread_name + 2 spans.
	if tr.Events() != 3 {
		t.Errorf("trace has %d events, want 3", tr.Events())
	}
	// StartSpanf without a trace formats nothing and returns nil.
	if _, sp := StartSpanf(context.Background(), "x %d", 1); sp != nil {
		t.Error("StartSpanf without a trace should return nil")
	}
}

func TestLimiter(t *testing.T) {
	var l Limiter // zero value admits everything
	now := time.Now()
	if !l.Allow(now) || !l.Allow(now) {
		t.Fatal("zero-value limiter must admit everything")
	}
	l = Limiter{MinInterval: time.Second}
	if !l.Allow(now) {
		t.Fatal("first event must fire")
	}
	if l.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("event inside the window must be suppressed")
	}
	if !l.Allow(now.Add(time.Second)) {
		t.Fatal("event at the window edge must fire")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Load() != 0 {
		t.Fatal("zero gauge must read 0")
	}
	g.Add(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Errorf("gauge reads %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Load(); got != -7 {
		t.Errorf("gauge reads %d after Set, want -7", got)
	}
	// Concurrent movement must settle exactly (race-clean both ways).
	g.Set(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 0 {
		t.Errorf("gauge reads %d after balanced concurrent adds, want 0", got)
	}
}
