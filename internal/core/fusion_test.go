package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/network"
	"sunstone/internal/workloads"
)

// fuseFixture: a small fully-fusible GEMM chain on the tiny two-level arch,
// where every fused handoff eliminates a DRAM round trip — the clearest
// possible signal for the cut DP — with search options small enough to keep
// the whole sweep fast.
func fuseFixture() (*network.Network, *arch.Arch, Options) {
	net := network.TransformerChain(16, 16, 64)
	opt := Options{BeamWidth: 4, TilesPerStep: 8, UnrollsPerStep: 1, Threads: 2}
	return net, arch.Tiny(1024), opt
}

// checkCut verifies the structural invariants of any fused schedule: groups
// tile the position chain exactly, member counts match spans, and the
// published totals are the sums of the published groups.
func checkCut(t *testing.T, net *network.Network, res NetworkResult) {
	t.Helper()
	at := 0
	var e, c float64
	for _, g := range res.Groups {
		if g.Start != at || g.End <= g.Start {
			t.Fatalf("groups do not tile the chain: got span [%d,%d) at position %d", g.Start, g.End, at)
		}
		if g.End > len(res.Layers) || len(g.Layers) != g.End-g.Start {
			t.Fatalf("group [%d,%d): %d layer names over %d positions", g.Start, g.End, len(g.Layers), len(res.Layers))
		}
		if g.End-g.Start == 1 && g.PinLevel != -1 {
			t.Errorf("singleton group [%d,%d) has pin level %d", g.Start, g.End, g.PinLevel)
		}
		if g.End-g.Start > 1 && g.PinLevel < 0 {
			t.Errorf("fused group [%d,%d) has no pin level", g.Start, g.End)
		}
		for i, m := range res.Layers[g.Start:g.End] {
			if m.Err != nil || m.Result.Mapping == nil || !m.Result.Report.Valid || m.Layer != g.Layers[i] {
				t.Fatalf("group [%d,%d) carries an invalid member result: %+v", g.Start, g.End, m)
			}
		}
		e += g.EnergyPJ
		c += g.Cycles
		at = g.End
	}
	if want := len(net.Positions()); at != want || len(res.Layers) != want || res.Failed != 0 {
		t.Fatalf("groups cover %d positions, %d layers (%d failed), want %d", at, len(res.Layers), res.Failed, want)
	}
	if e != res.TotalEnergyPJ || c != res.TotalCycles {
		t.Errorf("totals diverge from groups: (%v, %v) vs (%v, %v)", e, c, res.TotalEnergyPJ, res.TotalCycles)
	}
	if res.EDP != res.TotalEnergyPJ*res.TotalCycles {
		t.Errorf("EDP %v != E*C %v", res.EDP, res.TotalEnergyPJ*res.TotalCycles)
	}
}

// TestFusedBeatsUnfused is the headline property: on a DRAM-dominated
// architecture a fully-fusible chain must fuse, and the fused schedule must
// score strictly better EDP than the all-singleton baseline solved in the
// same run.
func TestFusedBeatsUnfused(t *testing.T) {
	net, a, opt := fuseFixture()
	e := NewEngine(0)
	res, err := e.SolveNetworkFused(context.Background(), net, a, opt, FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopComplete {
		t.Fatalf("Stopped = %v, want complete", res.Stopped)
	}
	checkCut(t, net, res)
	if res.EDP >= res.UnfusedEDP {
		t.Errorf("fused EDP %v did not beat unfused %v", res.EDP, res.UnfusedEDP)
	}
	fused := 0
	for _, g := range res.Groups {
		if g.End-g.Start > 1 {
			fused++
			if g.PinLevel != 0 {
				t.Errorf("group [%d,%d) pinned at level %d, want 0 (tiny L1)", g.Start, g.End, g.PinLevel)
			}
		}
	}
	if fused == 0 {
		t.Error("no fused group chosen on a fully-fusible DRAM-dominated chain")
	}
	if res.GroupsConsidered == 0 || res.GroupsSolved == 0 {
		t.Errorf("sweep counters empty: %+v", res)
	}
}

// TestFusedMaxGroupOneIsUnfused: MaxGroup 1 disables fusion and the result
// is exactly the singleton baseline — same totals bit-for-bit, no candidate
// groups even considered.
func TestFusedMaxGroupOneIsUnfused(t *testing.T) {
	net, a, opt := fuseFixture()
	e := NewEngine(0)
	res, err := e.SolveNetworkFused(context.Background(), net, a, opt, FusionOptions{MaxGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCut(t, net, res)
	if res.GroupsConsidered != 0 {
		t.Errorf("MaxGroup 1 considered %d groups", res.GroupsConsidered)
	}
	if res.EDP != res.UnfusedEDP || res.TotalEnergyPJ != res.UnfusedEnergyPJ || res.TotalCycles != res.UnfusedCycles {
		t.Errorf("all-singleton cut diverges from the unfused baseline: %+v", res)
	}
	for _, g := range res.Groups {
		if g.End-g.Start != 1 {
			t.Fatalf("MaxGroup 1 produced a fused group [%d,%d)", g.Start, g.End)
		}
	}
}

// TestFusedRepeatedLayerSelfEdge: a repeats-compressed layer expands into
// positions chained by its self-edge; the fused scheduler must fuse across
// occurrences of the same layer, and member dedup means the interior
// occurrences share one resident search.
func TestFusedRepeatedLayerSelfEdge(t *testing.T) {
	shapes := []workloads.ConvShape{{
		Name: "block", K: 4, C: 4, P: 4, Q: 4, R: 1, S: 1, StrideH: 1, StrideW: 1,
	}}
	net, err := network.FromConvShapes("rep", shapes, 1, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.EdgeBetween(0, 0); !ok {
		t.Fatal("fixture lost its self-edge")
	}
	e := NewEngine(0)
	opt := Options{BeamWidth: 4, TilesPerStep: 8, UnrollsPerStep: 1, Threads: 2}
	res, err := e.SolveNetworkFused(context.Background(), net, arch.Tiny(1024), opt, FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkCut(t, net, res)
	if res.EDP > res.UnfusedEDP {
		t.Errorf("fused EDP %v worse than unfused %v", res.EDP, res.UnfusedEDP)
	}
	if len(res.Groups) == 1 && res.Groups[0].End == 3 {
		names := res.Groups[0].Layers
		for _, n := range names {
			if n != "block" {
				t.Errorf("unexpected member name %q", n)
			}
		}
	}
}

// TestFusedCanceledContext: the anytime contract — a canceled context never
// hangs the sweep. Either the singleton baseline itself could not produce an
// incumbent (a classified per-layer error) or a schedule comes back with a
// non-complete stop reason.
func TestFusedCanceledContext(t *testing.T) {
	net, a, opt := fuseFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e2e(t, net, a, opt, ctx)
	if err != nil {
		var le *LayerError
		if !errors.As(err, &le) {
			t.Errorf("canceled run failed without per-layer classification: %v", err)
		}
		return
	}
	if res.Stopped == StopComplete {
		t.Errorf("canceled run reported StopComplete")
	}
	checkCut(t, net, res)
}

func e2e(t *testing.T, net *network.Network, a *arch.Arch, opt Options, ctx context.Context) (NetworkResult, error) {
	t.Helper()
	return NewEngine(0).SolveNetworkFused(ctx, net, a, opt, FusionOptions{})
}

// TestFusedRejectsInvalidInput: option and IR validation fire before any
// search runs.
func TestFusedRejectsInvalidInput(t *testing.T) {
	net, a, opt := fuseFixture()
	e := NewEngine(0)
	if _, err := e.SolveNetworkFused(context.Background(), nil, a, opt, FusionOptions{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := e.SolveNetworkFused(context.Background(), net, nil, opt, FusionOptions{}); err == nil {
		t.Error("nil arch accepted")
	}
	if _, err := e.SolveNetworkFused(context.Background(), net, a, Options{BeamWidth: -1}, FusionOptions{}); err == nil {
		t.Error("invalid options accepted")
	}
	bad := *net
	bad.Layers = append([]network.Layer(nil), net.Layers...)
	bad.Layers[0].Repeats = 0
	if _, err := e.SolveNetworkFused(context.Background(), &bad, a, opt, FusionOptions{}); err == nil {
		t.Error("invalid network accepted")
	}
}

// topDownNetOpt is the root package's quick network options under Table VI's
// top-down study: the network scheduler runs any member search the Options
// select, the study's as much as the product's.
func topDownNetOpt(budget int) Options {
	return Options{
		BeamWidth: 4, TilesPerStep: 8, UnrollsPerStep: 1, Threads: 2,
		Study: &Study{TopDown: true, VisitBudget: budget},
	}
}

// TestFusedTopDownRepeatsWeighting drives the repeats weighting through the
// per-layer cut with top-down member searches: the schedule expands a layer's
// repeats into positions sharing its one result, so its totals must equal the
// repeats-weighted sums of the per-layer reports. The root package's test of
// the same name covers the product search.
func TestFusedTopDownRepeatsWeighting(t *testing.T) {
	shapes := workloads.ResNet18[:3]
	repeats := []int{1, 4, 1}
	net, err := network.FromConvShapes("head", shapes, 1, repeats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(0).SolveNetworkFused(context.Background(), net, arch.Conventional(), topDownNetOpt(200), FusionOptions{MaxGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 6 {
		t.Fatalf("%d positions, want 1+4+1", len(res.Layers))
	}
	var wantE, wantC float64
	at := 0
	for i, rep := range repeats {
		l := res.Layers[at]
		for _, occ := range res.Layers[at : at+rep] {
			if occ.Layer != shapes[i].Name || occ.Result.Mapping != l.Result.Mapping {
				t.Errorf("position of %s holds %s, or not its layer's one result", shapes[i].Name, occ.Layer)
			}
		}
		wantE += l.Result.Report.EnergyPJ * float64(rep)
		wantC += l.Result.Report.Cycles * float64(rep)
		at += rep
	}
	// Equal up to the last bits of summing x four times against 4x.
	if math.Abs(res.TotalEnergyPJ-wantE) > 1e-12*wantE || math.Abs(res.TotalCycles-wantC) > 1e-12*wantC {
		t.Errorf("totals not repeats-weighted: (%v, %v), want (%v, %v)", res.TotalEnergyPJ, res.TotalCycles, wantE, wantC)
	}
}

// failFastProbe makes the fail-fast policy observable without a race on
// search speed: every evaluation of the bad layer panics, closing failed on
// the first; every evaluation of the sibling waits for failed, then panics
// too. The sibling can complete nothing valid, so what ends its (much
// longer) search is the cancellation.
type failFastProbe struct {
	bad, sibling string
	failed       chan struct{}
	once         sync.Once
}

func (p *failFastProbe) BeforeEvaluate(m *mapping.Mapping) {
	switch m.Workload.Name {
	case p.bad:
		p.once.Do(func() { close(p.failed) })
		panic("injected fault in layer " + p.bad)
	case p.sibling:
		<-p.failed
		panic("layer " + p.sibling + " evaluated after its sibling failed")
	}
}

// TestFusedTopDownFailFast drives the fail-fast policy through top-down
// member searches: a poisoned layer fails, and its failure cancels the
// sibling search — held back until then, and unable to complete anything
// valid — which classifies as sibling-cancel. The root package's
// TestScheduleNetworkIRFailFast covers the product search.
func TestFusedTopDownFailFast(t *testing.T) {
	bad := workloads.ConvShape{Name: "bad", K: 1, C: 1, P: 1, Q: 1, R: 1, S: 1, StrideH: 1, StrideW: 1}
	big := workloads.ResNet18[1] // conv2_x, 56x56x64: a long search
	net, err := network.FromConvShapes("pair", []workloads.ConvShape{bad, big}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Study: &Study{TopDown: true}, Model: cost.Default}
	opt.Model.Probe = &failFastProbe{bad: "bad", sibling: big.Name, failed: make(chan struct{})}
	res, err := NewEngine(0).SolveNetworkFused(context.Background(), net, arch.Conventional(), opt, FusionOptions{MaxGroup: 1})
	if err == nil || !strings.Contains(err.Error(), "bad: ") {
		t.Fatalf("expected the bad layer to fail the schedule, got %v", err)
	}
	if len(res.Layers) != 2 || CauseOf(res.Layers[0].Err) != CausePanic {
		t.Fatalf("bad layer missing its error: %+v", res.Layers)
	}
	if res.Failed != 2 || res.Groups != nil {
		t.Errorf("Failed = %d with %d groups, want both layers failed and no cut", res.Failed, len(res.Groups))
	}
	if cause := CauseOf(res.Layers[1].Err); cause != CauseSiblingCancel {
		t.Errorf("sibling classified as %q, want %q (err: %v)", cause, CauseSiblingCancel, res.Layers[1].Err)
	}
}
