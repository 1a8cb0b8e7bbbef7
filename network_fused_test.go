package sunstone_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"sunstone"
)

// quickNetOpt keeps the multi-search network tests fast without changing
// what they exercise.
func quickNetOpt(opt sunstone.Options) sunstone.Options {
	opt.BeamWidth = 4
	opt.TilesPerStep = 8
	opt.UnrollsPerStep = 1
	opt.Threads = 2
	return opt
}

// TestFuseSmoke is the network scheduler's end-to-end guarantee on a tiny
// network: the fused schedule never scores worse EDP than the unfused
// baseline solved in the same run, the chosen groups tile the chain, and
// turning fusion off (MaxGroup 1) is, bit for bit, one Engine.Solve per
// layer.
func TestFuseSmoke(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	a := sunstone.Tiny(1024)
	opt := quickNetOpt(sunstone.Options{})

	sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, opt, sunstone.FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.EDP > sched.UnfusedEDP {
		t.Errorf("fused EDP %v worse than unfused %v", sched.EDP, sched.UnfusedEDP)
	}
	at := 0
	for _, g := range sched.Groups {
		if g.Start != at {
			t.Fatalf("groups do not tile the chain at position %d", at)
		}
		at = g.End
	}
	if want := len(net.Positions()); at != want || len(sched.Layers) != want {
		t.Fatalf("schedule covers %d positions in groups, %d layers, want %d", at, len(sched.Layers), want)
	}

	// Fusion off: the all-singleton cut is the unfused baseline, and each of
	// its entries is what a direct Engine.Solve of that layer returns.
	off, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, opt, perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if off.EDP != off.UnfusedEDP || off.UnfusedEDP != sched.UnfusedEDP {
		t.Errorf("fusion off: EDP %v, unfused %v, the fused run's unfused %v", off.EDP, off.UnfusedEDP, sched.UnfusedEDP)
	}
	eng := sunstone.NewEngine()
	var energy, cycles float64
	for i, p := range net.Positions() {
		res, err := eng.Solve(context.Background(), sunstone.Problem{Workload: net.Layers[p.Layer].Workload, Arch: a}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := off.Layers[i].Result.Report; got.EnergyPJ != res.Report.EnergyPJ || got.Cycles != res.Report.Cycles ||
			off.Layers[i].Result.Mapping.String() != res.Mapping.String() {
			t.Errorf("position %d (%s): the MaxGroup 1 cut diverges from a direct Solve", i, off.Layers[i].Layer)
		}
		energy += res.Report.EnergyPJ
		cycles += res.Report.Cycles
	}
	if energy != off.TotalEnergyPJ || cycles != off.TotalCycles {
		t.Errorf("fusion-off totals (%v, %v) diverge from per-layer Solve calls (%v, %v)",
			off.TotalEnergyPJ, off.TotalCycles, energy, cycles)
	}
}

// TestScheduleNetworkIRRepeatsWeighting drives the repeats weighting through
// the per-layer cut: the schedule expands a layer's repeats into positions
// sharing its one result, so its totals must equal the repeats-weighted sums
// of the per-layer reports. The root runs the bottom-up direction only;
// internal/core's TestFusedTopDownRepeatsWeighting runs the same check under
// the top-down study.
func TestScheduleNetworkIRRepeatsWeighting(t *testing.T) {
	t.Run("bottom-up", testRepeatsWeighting)
}

func testRepeatsWeighting(t *testing.T) {
	shapes := sunstone.ResNet18Layers[:3]
	repeats := []int{1, 4, 1}
	ir, err := scheduleShapes(context.Background(), "head", shapes, repeats, sunstone.Conventional(), quickNetOpt(sunstone.Options{}), perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Layers) != 6 {
		t.Fatalf("%d positions, want 1+4+1", len(ir.Layers))
	}
	var wantE, wantC float64
	at := 0
	for i, rep := range repeats {
		l := ir.Layers[at]
		for _, occ := range ir.Layers[at : at+rep] {
			if occ.Layer != shapes[i].Name || occ.Result.Mapping != l.Result.Mapping {
				t.Errorf("position of %s holds %s, or not its layer's one result", shapes[i].Name, occ.Layer)
			}
		}
		wantE += l.Result.Report.EnergyPJ * float64(rep)
		wantC += l.Result.Report.Cycles * float64(rep)
		at += rep
	}
	// Equal up to the last bits of summing x four times against 4x.
	if math.Abs(ir.TotalEnergyPJ-wantE) > 1e-12*wantE || math.Abs(ir.TotalCycles-wantC) > 1e-12*wantC {
		t.Errorf("totals not repeats-weighted: (%v, %v), want (%v, %v)",
			ir.TotalEnergyPJ, ir.TotalCycles, wantE, wantC)
	}
}

// TestScheduleNetworkIRFailFast drives the fail-fast policy through the IR
// path: a poisoned layer fails, and its failure cancels the sibling search —
// held back until then, and unable to complete anything valid — which
// classifies as sibling-cancel. The root runs the bottom-up direction only;
// internal/core's TestFusedTopDownFailFast runs the same check under the
// top-down study.
func TestScheduleNetworkIRFailFast(t *testing.T) {
	t.Run("bottom-up", testFailFast)
}

func testFailFast(t *testing.T) {
	bad := sunstone.ConvShape{Name: "bad", K: 1, C: 1, P: 1, Q: 1, R: 1, S: 1, StrideH: 1, StrideW: 1}
	big := sunstone.ResNet18Layers[1] // conv2_x, 56x56x64: a long search
	sched, err := scheduleShapes(context.Background(), "pair", []sunstone.ConvShape{bad, big}, nil,
		sunstone.Conventional(), sunstone.Options{Model: failFastModel("bad", big.Name)}, perLayer)
	if err == nil || !strings.Contains(err.Error(), "bad: ") {
		t.Fatalf("expected the bad layer to fail the schedule, got %v", err)
	}
	if len(sched.Layers) != 2 || sunstone.CauseOf(sched.Layers[0].Err) != sunstone.CausePanic {
		t.Fatalf("bad layer missing its error: %+v", sched.Layers)
	}
	if sched.Failed != 2 || sched.Groups != nil {
		t.Errorf("Failed = %d with %d groups, want both layers failed and no cut", sched.Failed, len(sched.Groups))
	}
	if cause := sunstone.CauseOf(sched.Layers[1].Err); cause != sunstone.CauseSiblingCancel {
		t.Errorf("sibling classified as %q, want %q (err: %v)", cause, sunstone.CauseSiblingCancel, sched.Layers[1].Err)
	}
}

// TestFusedFailFastReturnsPartialSchedule: the error contract does not depend
// on MaxGroup. With fusion on and one poisoned layer, fail-fast returns every
// position plus a joined error naming the layer, the canceled sibling
// classifies as sibling-cancel, and no group is swept over the broken chain.
func TestFusedFailFastReturnsPartialSchedule(t *testing.T) {
	bad := sunstone.ConvShape{Name: "bad", K: 1, C: 1, P: 1, Q: 1, R: 1, S: 1, StrideH: 1, StrideW: 1}
	big := sunstone.ResNet18Layers[1]
	sched, err := scheduleShapes(context.Background(), "pair", []sunstone.ConvShape{bad, big}, []int{1, 2},
		sunstone.Conventional(), sunstone.Options{Model: failFastModel("bad", big.Name)}, sunstone.FusionOptions{})
	if err == nil || !strings.Contains(err.Error(), "bad: [panic]") || !strings.Contains(err.Error(), big.Name+": [sibling-cancel]") {
		t.Fatalf("joined error should name both layers with their causes, got %v", err)
	}
	if len(sched.Layers) != 3 || sched.Failed != 3 || sched.Groups != nil || sched.GroupsConsidered != 0 {
		t.Fatalf("partial schedule: %d positions, %d failed, %d groups, %d considered; want 3, 3, none, 0",
			len(sched.Layers), sched.Failed, len(sched.Groups), sched.GroupsConsidered)
	}
	for i, want := range []sunstone.FailureCause{sunstone.CausePanic, sunstone.CauseSiblingCancel, sunstone.CauseSiblingCancel} {
		if got := sunstone.CauseOf(sched.Layers[i].Err); got != want {
			t.Errorf("position %d (%s): cause %q, want %q", i, sched.Layers[i].Layer, got, want)
		}
	}
	if sched.EDP != 0 {
		t.Errorf("EDP %v over a schedule with no survivor", sched.EDP)
	}
}

// TestFusedContinueOnErrorKeepsSurvivors: with ContinueOnError the other
// singletons run to completion, the totals cover them, Failed counts the
// rest, and the group sweep — which the clean chain does run — is skipped.
func TestFusedContinueOnErrorKeepsSurvivors(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	a := sunstone.Tiny(1024)
	clean, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, quickNetOpt(sunstone.Options{}), sunstone.FusionOptions{})
	if err != nil || clean.GroupsConsidered == 0 {
		t.Fatalf("clean chain: err %v, %d groups considered", err, clean.GroupsConsidered)
	}
	sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a,
		quickNetOpt(poisonedOptions("attn_out")), sunstone.FusionOptions{ContinueOnError: true})
	if err == nil || !strings.Contains(err.Error(), "attn_out: [panic]") {
		t.Fatalf("poisoned layer must surface in the joined error, got %v", err)
	}
	if sched.Failed != 1 || sched.Groups != nil || sched.GroupsConsidered != 0 {
		t.Fatalf("Failed = %d, %d groups, %d considered; want 1, none, 0", sched.Failed, len(sched.Groups), sched.GroupsConsidered)
	}
	var energy, cycles float64
	for _, l := range sched.Layers {
		if l.Layer == "attn_out" {
			if l.Err == nil || l.Result.Mapping != nil {
				t.Errorf("poisoned layer: err %v, mapping %v", l.Err, l.Result.Mapping)
			}
			continue
		}
		if l.Err != nil || l.Result.Stopped != sunstone.StopComplete {
			t.Errorf("survivor %s: err %v, stopped %v", l.Layer, l.Err, l.Result.Stopped)
		}
		energy += l.Result.Report.EnergyPJ
		cycles += l.Result.Report.Cycles
	}
	if sched.TotalEnergyPJ != energy || sched.TotalCycles != cycles || sched.EDP != energy*cycles || sched.EDP != sched.UnfusedEDP {
		t.Errorf("totals (%v, %v, EDP %v) do not cover exactly the survivors (%v, %v)",
			sched.TotalEnergyPJ, sched.TotalCycles, sched.EDP, energy, cycles)
	}
}
