package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

func conv2D(t testing.TB, n, k, c, p, q, r, s int) *tensor.Workload {
	t.Helper()
	w, err := tensor.New("conv2d",
		map[tensor.Dim]int{"N": n, "K": k, "C": c, "P": p, "Q": q, "R": r, "S": s},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{
			tensor.A("N"), tensor.A("C"), tensor.Win("P", 1, "R", 1), tensor.Win("Q", 1, "S", 1),
		}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{
			tensor.A("K"), tensor.A("C"), tensor.A("R"), tensor.A("S"),
		}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{
			tensor.A("N"), tensor.A("K"), tensor.A("P"), tensor.A("Q"),
		}, Output: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func conv1D(t testing.TB, k, c, p, r int) *tensor.Workload {
	t.Helper()
	w, err := tensor.New("conv1d",
		map[tensor.Dim]int{"K": k, "C": c, "P": p, "R": r},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("C")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("C"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P")}, Output: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// directions are Table VI's two inter-level orders, by the names subtests
// and golden cases use.
var directions = []struct {
	name    string
	topDown bool
}{{"bottom-up", false}, {"top-down", true}}

// solve is the tests' positional shorthand for one Solve on a transient
// Engine under a background context.
func solve(w *tensor.Workload, a *arch.Arch, opt Options) (Result, error) {
	return Solve(context.Background(), Problem{Workload: w, Arch: a}, opt)
}

func TestOptimizeTinyConv(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	res, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("result must be valid: %v", res.Report.Invalid)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("returned mapping invalid: %v", err)
	}
	if res.SpaceSize <= 0 || res.OrderingsConsidered <= 0 {
		t.Errorf("bad stats: %+v", res)
	}
	// The optimized mapping must beat naive DRAM streaming by a wide margin.
	naive := mapping.New(w, a)
	for d, bound := range w.Dims {
		naive.Levels[1].Temporal[d] = bound
	}
	rNaive := cost.Evaluate(naive)
	if res.Report.EnergyPJ >= rNaive.EnergyPJ/2 {
		t.Errorf("optimizer result (%.0f pJ) should be at least 2x better than naive (%.0f pJ)",
			res.Report.EnergyPJ, rNaive.EnergyPJ)
	}
}

func TestOptimizeUsesSpatialFanout(t *testing.T) {
	w := conv2D(t, 1, 32, 32, 16, 16, 3, 3)
	a := arch.TinySpatial(512, 1<<18, 16)
	res, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.PEUtilization() < 0.5 {
		t.Errorf("PE utilization = %.2f, want >= 0.5 (high-throughput pruning)",
			res.Mapping.PEUtilization())
	}
}

func TestOptimizeConventional(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	a := arch.Conventional()
	res, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
	if res.Report.EDP <= 0 || math.IsInf(res.Report.EDP, 1) {
		t.Errorf("EDP = %v", res.Report.EDP)
	}
}

func TestOptimizeSimbaMultiLevelSpatial(t *testing.T) {
	// The headline scalability claim: Sunstone handles architectures with
	// multiple spatial levels (Simba) out of the box.
	w := conv2D(t, 1, 64, 64, 8, 8, 3, 3)
	a := arch.Simba()
	res, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
	// Some spatial level must actually be used.
	spatial := 1
	for l := range res.Mapping.Levels {
		spatial *= res.Mapping.Levels[l].SpatialProduct()
	}
	if spatial < 8 {
		t.Errorf("Simba mapping uses spatial product %d, want >= 8", spatial)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	w := conv1D(t, 8, 8, 28, 3)
	a := arch.TinySpatial(256, 1<<16, 4)
	r1, err1 := solve(w, a, Options{})
	r2, err2 := solve(w, a, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Report.EDP != r2.Report.EDP {
		t.Errorf("non-deterministic: %v vs %v", r1.Report.EDP, r2.Report.EDP)
	}
	if r1.Mapping.String() != r2.Mapping.String() {
		t.Errorf("non-deterministic mapping:\n%s\nvs\n%s", r1.Mapping, r2.Mapping)
	}
}

func TestTopDownVsBottomUp(t *testing.T) {
	// Table VI shape: top-down examines far more candidates; EDPs are in
	// the same ballpark.
	w := conv1D(t, 16, 16, 28, 3)
	a := arch.TinySpatial(512, 1<<16, 16)
	bu, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	td, err := solve(w, a, Options{Study: &Study{TopDown: true, VisitBudget: 30_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !bu.Report.Valid || !td.Report.Valid {
		t.Fatalf("both must be valid: %v / %v", bu.Report.Invalid, td.Report.Invalid)
	}
	if td.SpaceSize <= bu.SpaceSize {
		t.Errorf("top-down space (%d) should exceed bottom-up (%d)", td.SpaceSize, bu.SpaceSize)
	}
	// Same ballpark: within 4x either way.
	ratio := bu.Report.EDP / td.Report.EDP
	if ratio > 4 || ratio < 0.25 {
		t.Errorf("EDP ratio bottom-up/top-down = %.2f, want within [0.25, 4]", ratio)
	}
}

func TestIntraLevelStrategies(t *testing.T) {
	// Table VI: intra-level order changes space size but not quality.
	w := conv1D(t, 16, 16, 28, 3)
	a := arch.TinySpatial(512, 1<<16, 16)
	var edps []float64
	var sizes []int
	for _, s := range []Strategy{OrderTileUnroll, TileUnrollOrder, UnrollTileOrder} {
		res, err := solve(w, a, Options{Study: &Study{Strategy: s}})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		edps = append(edps, res.Report.EDP)
		sizes = append(sizes, res.SpaceSize)
	}
	for i := 1; i < len(edps); i++ {
		if math.Abs(edps[i]-edps[0]) > 1e-9*edps[0] {
			t.Errorf("strategy %d EDP %v differs from default %v", i, edps[i], edps[0])
		}
	}
	if sizes[1] <= sizes[0] || sizes[2] <= sizes[0] {
		t.Errorf("ordering-last strategies should enumerate more: %v", sizes)
	}
}

func TestOptimizeMTTKRP(t *testing.T) {
	// Versatility: a non-conv workload runs through the same pipeline.
	w, err := tensor.New("mttkrp",
		map[tensor.Dim]int{"I": 64, "J": 32, "K": 16, "L": 16},
		&tensor.Tensor{Name: "A", Axes: []tensor.Axis{tensor.A("I"), tensor.A("K"), tensor.A("L")}},
		&tensor.Tensor{Name: "B", Axes: []tensor.Axis{tensor.A("K"), tensor.A("J")}},
		&tensor.Tensor{Name: "C", Axes: []tensor.Axis{tensor.A("L"), tensor.A("J")}},
		&tensor.Tensor{Name: "out", Axes: []tensor.Axis{tensor.A("I"), tensor.A("J")}, Output: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.TinySpatial(1024, 1<<18, 16)
	res, optErr := solve(w, a, Options{})
	if optErr != nil {
		t.Fatal(optErr)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
}

func TestOptimizeRejectsBadInputs(t *testing.T) {
	w := conv1D(t, 8, 8, 28, 3)
	badArch := &arch.Arch{Name: "bad"}
	if _, err := solve(w, badArch, Options{}); err == nil {
		t.Error("invalid arch must error")
	}
	badW := &tensor.Workload{Name: "bad"}
	if _, err := solve(badW, arch.Tiny(64), Options{}); err == nil {
		t.Error("invalid workload must error")
	}
}

func TestOptimizeImperfectDims(t *testing.T) {
	// Prime-ish dims (Inception-v3 has P=149): padding must keep the
	// mapping legal.
	w := conv1D(t, 7, 13, 149, 3)
	a := arch.Tiny(512)
	res, err := solve(w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("mapping with padded dims invalid: %v", err)
	}
	if res.Report.MACs < w.MACs() {
		t.Errorf("padded MACs %d below true MACs %d", res.Report.MACs, w.MACs())
	}
}

func TestDirectionAndStrategyStrings(t *testing.T) {
	if (Study{}).direction() != "bottom-up" || (Study{TopDown: true}).direction() != "top-down" {
		t.Error("direction strings")
	}
	if OrderTileUnroll.String() == "" || TileUnrollOrder.String() == "" || UnrollTileOrder.String() == "" {
		t.Error("strategy strings")
	}
}

func TestObjectives(t *testing.T) {
	w := conv2D(t, 1, 32, 32, 16, 16, 3, 3)
	a := arch.TinySpatial(512, 1<<18, 16)
	edp, err := solve(w, a, Options{Objective: MinEDP})
	if err != nil {
		t.Fatal(err)
	}
	en, err := solve(w, a, Options{Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := solve(w, a, Options{Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	ed2, err := solve(w, a, Options{Objective: MinED2P})
	if err != nil {
		t.Fatal(err)
	}
	// Each specialist must be at least as good as the EDP generalist on its
	// own metric.
	if en.Report.EnergyPJ > edp.Report.EnergyPJ*1.0001 {
		t.Errorf("MinEnergy (%.3e) worse than MinEDP (%.3e) on energy",
			en.Report.EnergyPJ, edp.Report.EnergyPJ)
	}
	if dl.Report.Cycles > edp.Report.Cycles*1.0001 {
		t.Errorf("MinDelay (%.0f) worse than MinEDP (%.0f) on cycles",
			dl.Report.Cycles, edp.Report.Cycles)
	}
	if !ed2.Report.Valid {
		t.Error("MinED2P result invalid")
	}
	for _, o := range []Objective{MinEDP, MinEnergy, MinDelay, MinED2P} {
		if o.String() == "" {
			t.Error("objective string empty")
		}
	}
}

func TestObjectiveScoreInvalid(t *testing.T) {
	var rep cost.Report // zero value: invalid
	if !math.IsInf(MinEDP.Score(rep), 1) {
		t.Error("invalid reports must score +Inf")
	}
}

func TestOptimizeInfeasibleArch(t *testing.T) {
	// Failure injection: an L1 too small for even a unit tile (one word of
	// each datatype) must produce a clear error, not a bogus mapping.
	w := conv1D(t, 8, 8, 28, 3)
	a := arch.Tiny(2)
	_, err := solve(w, a, Options{})
	if err == nil {
		t.Fatal("expected an error for an infeasible architecture")
	}
}

func TestOptimizeTopDownInfeasible(t *testing.T) {
	w := conv1D(t, 8, 8, 28, 3)
	a := arch.Tiny(2)
	_, err := solve(w, a, Options{Study: &Study{TopDown: true, VisitBudget: 10_000}})
	if err == nil {
		t.Fatal("top-down must also report infeasibility")
	}
}

// TestOptimizeWithCustomModel: the naive (no sliding-reuse) model is a
// supported configuration and reaches the search — the result is scored by
// it, not by the default model it used to be silently replaced with.
func TestOptimizeWithCustomModel(t *testing.T) {
	w := conv1D(t, 8, 8, 28, 3) // ifmap has a P+R window axis
	a := arch.Tiny(256)
	naive := cost.Model{NoSlidingReuse: true}
	res, err := solve(w, a, Options{Model: naive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
	if want := naive.Evaluate(res.Mapping); !reflect.DeepEqual(res.Report, want) {
		t.Errorf("Report is not the naive model's evaluation of the returned mapping:\n got %+v\nwant %+v", res.Report, want)
	}
	if def := cost.Default.Evaluate(res.Mapping); def.EDP == res.Report.EDP {
		t.Errorf("naive and default models agree (EDP %v) on a windowed conv: the sliding discount never applied, so the test cannot tell them apart", def.EDP)
	}
}
