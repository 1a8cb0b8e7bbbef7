package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// planBytes serializes a plan: the same seed must give these bytes again.
func planBytes(plan any) []byte {
	b, err := json.Marshal(plan)
	if err != nil {
		panic(err)
	}
	return b
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 4, 2, 100}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// deviations from 4: 5, 3, 0, 2, 96 → median 3
	if got := mad(xs); got != 3 {
		t.Errorf("mad = %v, want 3", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	// The same multiset in another order must give the same bits.
	a := []float64{3.1e17, 2.7e15, 9.9e18, 1.3e16, 5.5e14, 7.7e17}
	b := []float64{a[5], a[2], a[0], a[4], a[1], a[3]}
	if math.Float64bits(geomean(a)) != math.Float64bits(geomean(b)) {
		t.Errorf("geomean depends on sample order: %v vs %v", geomean(a), geomean(b))
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spreadShare(ten); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := percentileSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("percentileSupported(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if err := requirePercentile(80, 90, false); err == nil {
		t.Error("80 samples accepted for p90 at full scale")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, wl := range []string{wlColdLayers, wlNetworkFused} {
		a := planBytes(newLibPlan(wl, 7, nominalSeconds, 0))
		if b := planBytes(newLibPlan(wl, 7, nominalSeconds, 0)); !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different plans", wl)
		}
		if b := planBytes(newLibPlan(wl, 8, nominalSeconds, 0)); bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", wl)
		}
	}
	a := newSvcPlan(wlServiceMix, 7, 200)
	if !bytes.Equal(planBytes(a), planBytes(newSvcPlan(wlServiceMix, 7, 200))) {
		t.Error("service: the same seed gave two different job lists")
	}
	b := newSvcPlan(wlServiceMix, 8, 200)
	if bytes.Equal(planBytes(a), planBytes(b)) {
		t.Error("service: seeds 7 and 8 gave the same job list")
	}
	// Seeds reorder the jobs; they never change which jobs run.
	multiset := func(p *svcPlan) []string {
		var out []string
		for _, j := range p.Jobs {
			out = append(out, string(planBytes(j)))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(multiset(a), multiset(b)) {
		t.Error("service: seeds 7 and 8 run different sets of jobs")
	}
	kinds := map[string]int{}
	cold := map[string]bool{}
	for _, j := range a.Jobs {
		kinds[j.Kind]++
		if j.Kind == kindCold {
			key := string(planBytes(j.Req))
			if cold[key] {
				t.Errorf("cold problem repeats: %s", key)
			}
			cold[key] = true
		}
	}
	if kinds[kindHot] != 140 || kinds[kindCold] != 40 || kinds[kindNetwork] != 20 {
		t.Errorf("mix = %v, want 140 hot / 40 cold / 20 network", kinds)
	}
}

func TestFrozenRows(t *testing.T) {
	rows := coldRows(0)
	if len(rows) != 48 {
		t.Fatalf("cold-layers has %d rows, want 48", len(rows))
	}
	perMachine := map[string]int{}
	fig6 := 0
	seen := map[string]bool{}
	for _, r := range rows {
		perMachine[r.machine]++
		if seen[r.name] {
			t.Errorf("row %s drawn twice", r.name)
		}
		seen[r.name] = true
		if r.machine == "conventional" && (r.family == famMTTKRP || r.family == famTTMc || r.family == famSDDMM) {
			fig6++
		}
	}
	for _, m := range machines {
		if perMachine[m.name] != 16 {
			t.Errorf("%s has %d rows, want 16", m.name, perMachine[m.name])
		}
	}
	if fig6 != 8 {
		t.Errorf("%d Fig. 6 kernels kept on conventional, want all 8", fig6)
	}
	if n := len(networkRows(0)); n != 10 {
		t.Errorf("network-fused has %d rows, want 10", n)
	}
	if got := scaleCount(networkRounds, nominalSeconds) * 10; !percentileSupported(got, e2eTail) {
		t.Errorf("network-fused runs %d ops, too few for p%d", got, e2eTail)
	}
}

// testConfig is a run at about 1/50 scale.
func testConfig(t *testing.T, workload string) *config {
	dir := t.TempDir()
	return &config{workload: workload, seed: 3, seconds: 0.4, outDir: dir, workdir: filepath.Join(dir, "work")}
}

// TestSmokeAllWorkloads runs each workload end to end at about 1/50 scale:
// every op and every check (twins, durable reopen) must pass and every
// end-to-end metric must come out positive.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			c := testConfig(t, wl)
			o, facts, err := execute(c, 2)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed() != 0 {
				t.Fatalf("failures: %v", o.failures())
			}
			m, err := endToEnd(o, 0.01, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range endToEndSpecs {
				got, ok := m[spec.Name]
				if !ok || !(got.Value > 0) || got.Unit != spec.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", spec.Name, got, spec.Unit)
				}
			}
			if len(m) != len(endToEndSpecs) {
				t.Errorf("%d metrics reported, %d declared", len(m), len(endToEndSpecs))
			}
			if wl == wlServiceDurable && (facts == nil || !facts.durable || facts.journal.Records == 0) {
				t.Errorf("durable run left no journal facts: %+v", facts)
			}
		})
	}
}

// TestTracedRun runs a down-scaled traced run: it must report exactly the
// declared per-layer metrics, and the trace file it writes must pass the
// format rules of cmd/tracecheck (a traceEvents array of only "X" and "M"
// events, named, with non-negative times, at least one "X").
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes a few seconds")
	}
	c := testConfig(t, wlServiceDurable)
	c.trace = 1
	m, o, err := tracedRun(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed() != 0 {
		t.Fatalf("failures: %v", o.failures())
	}
	for _, spec := range perLayer {
		if got, ok := m[spec.Name]; !ok || got.Unit != spec.Unit {
			t.Errorf("%s = %+v, want unit %s", spec.Name, got, spec.Unit)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(m), len(perLayer))
	}
	if m["journal.fsyncs_per_job"].Value <= 0 || m["journal.bytes_per_job"].Value <= 0 {
		t.Errorf("durable pass journaled nothing: %+v %+v", m["journal.fsyncs_per_job"], m["journal.bytes_per_job"])
	}
	if m["cost.eval_allocs"].Value != 0 {
		t.Errorf("cost.eval_allocs = %v, the fast path must not allocate", m["cost.eval_allocs"].Value)
	}

	data, err := os.ReadFile(filepath.Join(c.outDir, "trace-"+c.workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not valid trace JSON: %v", err)
	}
	spans := map[string]int{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name]++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %d (%q): negative timing ts=%v dur=%v", i, ev.Name, ev.Ts, ev.Dur)
			}
		case "M":
		default:
			t.Errorf("event %d (%q): unexpected phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
	}
	for _, want := range []string{"order.Enumerate", "tile.Enumerate", "cost.Evaluate", "core.Engine.Solve(cold)",
		"server.submit", "server.events", "journal.AppendDurable", "journal.Open", "exec.Verify", "bench.verify"} {
		if spans[want] == 0 {
			t.Errorf("no span named %q in the trace", want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	op := tr.newOp("op")
	a := tr.begin(op, "a", 1)
	b := tr.begin(a, "b", 4)
	tr.end(b)
	tr.end(a)
	tr.end(op)
	// Fix the clock readings: op 0..100, a 10..70, b 20..50.
	tr.spans[op].start, tr.spans[op].end = 0, 100
	tr.spans[a].start, tr.spans[a].end = 10, 70
	tr.spans[b].start, tr.spans[b].end = 20, 50
	self := tr.selfTimes()
	if self[op] != 40 || self[a] != 30 || self[b] != 30 {
		t.Errorf("self times = %v, want [40 30 30]", self)
	}
	if got := tr.perCall("b", 1); len(got) != 1 || got[0] != 7.5 {
		t.Errorf("perCall(b) = %v, want [7.5]", got)
	}
	if tr.spans[b].op != tr.spans[op].op {
		t.Error("child span does not share its op's id")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 100, 110, 90, 125, 75}
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"unchanged", lower, base, shift(1.01), verdictSame},
		{"slower beyond the bound", lower, base, shift(1.2), verdictWorse},
		{"faster, every pair wins", lower, base, shift(0.8), verdictBetter},
		{"throughput down beyond the bound", higher, base, shift(0.8), verdictWorse},
		{"throughput up", higher, base, shift(1.3), verdictBetter},
		{"spread wider than the bound", lower, noisy, shift(1.02), verdictUnresolved},
		{"noisy but every run better", lower, noisy, shift(0.5), verdictBetter},
	} {
		if got := judge(tc.spec, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONInStep keeps the repository's BENCHMARK.json and the
// harness's metric tables the same list.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the counts are frozen for %d", doc.RunSeconds, nominalSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, harness runs %v", names, workloadNames)
	}
	check := func(section string, got []decl, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, harness reports %d", section, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, harness has %+v", section, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s: bound %v declared, harness has %v", w.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", w.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndSpecs, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
