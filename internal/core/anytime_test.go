package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/exec"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
)

func TestOptionsValidate(t *testing.T) {
	bad := []struct {
		name string
		opt  Options
	}{
		{"NaN AlphaSlack", Options{AlphaSlack: math.NaN()}},
		{"Inf AlphaSlack", Options{AlphaSlack: math.Inf(1)}},
		{"negative AlphaSlack", Options{AlphaSlack: -1}},
		{"huge AlphaSlack", Options{AlphaSlack: 1e15}},
		{"NaN MinUtilization", Options{MinUtilization: math.NaN()}},
		{"MinUtilization > 1", Options{MinUtilization: 1.5}},
		{"negative BeamWidth", Options{BeamWidth: -3}},
		{"absurd BeamWidth", Options{BeamWidth: 1 << 30}},
		{"negative Threads", Options{Threads: -1}},
		{"absurd Threads", Options{Threads: 1 << 20}},
		{"negative TilesPerStep", Options{TilesPerStep: -1}},
		{"absurd UnrollsPerStep", Options{UnrollsPerStep: 1 << 30}},
		{"negative visit budget", Options{Study: &Study{VisitBudget: -1}}},
		{"negative Timeout", Options{Timeout: -time.Second}},
		{"unknown Strategy", Options{Study: &Study{Strategy: Strategy(99)}}},
		{"unknown Objective", Options{Objective: Objective(99)}},
	}
	for _, tc := range bad {
		if err := tc.opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opt)
		}
	}
	good := []Options{
		{},
		{BeamWidth: 8, AlphaSlack: 4, MinUtilization: 0.9, Threads: 2},
		{Study: &Study{TopDown: true, Strategy: UnrollTileOrder}, Objective: MinED2P, Timeout: time.Second},
	}
	for _, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate rejected valid options %+v: %v", opt, err)
		}
	}
	// Invalid options must surface through Solve, not just Validate.
	w := conv1D(t, 4, 4, 8, 3)
	if _, err := solve(w, arch.Tiny(256), Options{BeamWidth: -1}); err == nil {
		t.Error("Solve accepted invalid options")
	}
}

// verifyAnytime checks the anytime contract on a stopped result: a
// structurally valid best-so-far mapping with the right stop reason. When
// functional is set it additionally executes the mapped loop nest against
// the reference (only affordable on small workloads — execution cost scales
// with the full iteration space, not the search space).
func verifyAnytime(t *testing.T, res Result, err error, want StopReason, functional bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("stopped search should still return its incumbent: %v", err)
	}
	if res.Stopped != want {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, want)
	}
	if res.Mapping == nil {
		t.Fatal("stopped search returned no mapping")
	}
	if verr := res.Mapping.Validate(); verr != nil {
		t.Fatalf("best-so-far mapping is structurally invalid: %v", verr)
	}
	if !functional {
		return
	}
	ok, verr := exec.Verify(res.Mapping)
	if verr != nil {
		t.Fatalf("verify: %v", verr)
	}
	if !ok {
		t.Fatal("best-so-far mapping computes the wrong result")
	}
}

func TestOptimizeContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := conv1D(t, 8, 8, 28, 3)
	start := time.Now()
	res, err := Solve(ctx, Problem{Workload: w, Arch: arch.Tiny(256)}, Options{})
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("pre-canceled search took %v, want ~immediate", el)
	}
	verifyAnytime(t, res, err, StopCanceled, true)
}

func TestOptimizeTimeoutDeadline(t *testing.T) {
	// Big enough that the full search takes well over the timeout (about
	// 40 ms on a 2.6 GHz core since the dense expansion rewrite).
	w := conv2D(t, 32, 512, 384, 112, 112, 5, 5)
	start := time.Now()
	res, err := solve(w, arch.Simba(), Options{Timeout: 5 * time.Millisecond})
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline-stopped search took %v, want well under 500ms", elapsed)
	}
	verifyAnytime(t, res, err, StopDeadline, false)
}

func TestOptimizeCancelMidSearch(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from the synchronous progress stream once the search is a few
	// phases in: deterministic mid-search timing on any machine, unlike a
	// sleeping goroutine racing a search that keeps getting faster.
	var events atomic.Int64
	opt := Options{Progress: func(obs.ProgressEvent) {
		if events.Add(1) == 4 {
			cancel()
		}
	}}
	start := time.Now()
	res, err := Solve(ctx, Problem{Workload: w, Arch: arch.Simba()}, opt)
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("canceled search took %v after the signal, want well under 500ms", el)
	}
	verifyAnytime(t, res, err, StopCanceled, false)
}

func TestOptimizeTopDownStops(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, Problem{Workload: w, Arch: arch.Tiny(256)}, Options{Study: &Study{TopDown: true}})
	verifyAnytime(t, res, err, StopCanceled, false)

	res, err = solve(w, arch.Tiny(256), Options{Study: &Study{TopDown: true}, Timeout: 10 * time.Millisecond})
	if res.Stopped != StopDeadline && res.Stopped != StopBudget && res.Stopped != StopComplete {
		t.Fatalf("unexpected stop reason %v", res.Stopped)
	}
	if err != nil || res.Mapping == nil {
		t.Fatalf("top-down deadline run: err=%v mapping=%v", err, res.Mapping)
	}
}

func TestOptimizeTopDownVisitBudget(t *testing.T) {
	w := conv2D(t, 4, 16, 16, 14, 14, 3, 3)
	res, err := solve(w, arch.Tiny(4096), Options{Study: &Study{TopDown: true, VisitBudget: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopBudget {
		t.Fatalf("Stopped = %v, want StopBudget with a 50-visit budget", res.Stopped)
	}
	if res.Mapping == nil {
		t.Fatal("budget-stopped search returned no mapping")
	}
}

// flakyProbe panics on every nth cost-model evaluation.
type flakyProbe struct {
	n     int64
	every int64
}

func (p *flakyProbe) BeforeEvaluate(m *mapping.Mapping) {
	if atomic.AddInt64(&p.n, 1)%p.every == 0 {
		panic("injected cost-model fault")
	}
}

// alwaysPanicProbe poisons every evaluation.
type alwaysPanicProbe struct{}

func (alwaysPanicProbe) BeforeEvaluate(m *mapping.Mapping) { panic("poisoned model") }

func TestOptimizePanicIsolation(t *testing.T) {
	w := conv1D(t, 16, 16, 28, 3)
	model := cost.Default
	model.Probe = &flakyProbe{every: 7}
	res, err := solve(w, arch.Tiny(256), Options{Model: model})
	if err != nil {
		t.Fatalf("intermittent panics must not fail the search: %v", err)
	}
	if res.Mapping == nil {
		t.Fatal("no mapping despite most evaluations succeeding")
	}
	if len(res.CandidateErrors) == 0 {
		t.Fatal("poisoned candidates were not reported in CandidateErrors")
	}
	for _, cerr := range res.CandidateErrors {
		msg := cerr.Error()
		if !strings.Contains(msg, "injected cost-model fault") {
			t.Errorf("candidate error lost the panic value: %v", msg)
		}
		if !strings.Contains(msg, "offending candidate") || !strings.Contains(msg, `"levels"`) {
			t.Errorf("candidate error carries no serialized repro: %v", msg)
		}
	}
}

func TestOptimizeAllEvaluationsPanic(t *testing.T) {
	w := conv1D(t, 8, 8, 28, 3)
	model := cost.Default
	model.Probe = alwaysPanicProbe{}
	res, err := solve(w, arch.Tiny(256), Options{Model: model})
	if err == nil {
		t.Fatalf("fully poisoned model must fail with an error, got %+v", res)
	}
	if !strings.Contains(err.Error(), "poisoned model") {
		t.Errorf("error does not carry the panic cause: %v", err)
	}
}

func TestOptimizeCancelLeaksNoGoroutines(t *testing.T) {
	w := conv2D(t, 4, 32, 32, 14, 14, 3, 3)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		if _, err := Solve(ctx, Problem{Workload: w, Arch: arch.Simba()}, Options{}); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked across canceled searches: %d before, %d after", before, after)
	}
}
