package sunstone_test

import (
	"context"
	"strings"
	"testing"

	"sunstone"
)

// quickNetOpt keeps the multi-search network tests fast without changing
// what they exercise.
func quickNetOpt(dir sunstone.Options) sunstone.NetworkOptions {
	dir.BeamWidth = 4
	dir.TilesPerStep = 8
	dir.UnrollsPerStep = 1
	dir.Threads = 2
	return sunstone.NetworkOptions{Options: dir}
}

// TestFuseSmoke is the fusion pipeline's end-to-end guarantee on a tiny
// network: the fused schedule never scores worse EDP than the unfused
// baseline solved in the same run, the chosen groups tile the chain, and
// turning fusion off (MaxGroup 1) reproduces the unfused totals exactly.
func TestFuseSmoke(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	a := sunstone.Tiny(1024)
	opt := quickNetOpt(sunstone.Options{})

	sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, opt, sunstone.FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Fused {
		t.Fatal("fused scheduler returned an unfused schedule")
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

	// Fusion off: the all-singleton cut is the unfused baseline, and the
	// plain per-layer IR scheduler agrees with it bit for bit.
	off, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, opt, sunstone.FusionOptions{MaxGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.EDP != off.UnfusedEDP {
		t.Errorf("fusion off: EDP %v != unfused %v", off.EDP, off.UnfusedEDP)
	}
	plain, err := sunstone.NewEngine().ScheduleNetwork(context.Background(), net, a, quickNetOpt(sunstone.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalEnergyPJ != off.TotalEnergyPJ || plain.TotalCycles != off.TotalCycles {
		t.Errorf("fusion-off totals (%v, %v) diverge from the per-layer scheduler (%v, %v)",
			off.TotalEnergyPJ, off.TotalCycles, plain.TotalEnergyPJ, plain.TotalCycles)
	}
}

// TestScheduleNetworkIRRepeatsWeighting drives the repeats weighting through
// the per-layer scheduler in both optimization directions: the totals must
// be the repeats-weighted sums of the per-layer reports.
func TestScheduleNetworkIRRepeatsWeighting(t *testing.T) {
	shapes := sunstone.ResNet18Layers[:3]
	repeats := []int{1, 4, 1}
	a := sunstone.Conventional()
	for _, dir := range []struct {
		name string
		opt  sunstone.Options
	}{
		{"bottom-up", sunstone.Options{Direction: sunstone.BottomUp}},
		{"top-down", sunstone.Options{Direction: sunstone.TopDown, TopDownVisitBudget: 200}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			ir, err := scheduleShapes(context.Background(), "head", shapes, repeats, a, quickNetOpt(dir.opt))
			if err != nil {
				t.Fatal(err)
			}
			var wantE, wantC float64
			for i, l := range ir.Layers {
				if l.Repeats != repeats[i] {
					t.Errorf("layer %d repeats = %d, want %d", i, l.Repeats, repeats[i])
				}
				wantE += l.Result.Report.EnergyPJ * float64(l.Repeats)
				wantC += l.Result.Report.Cycles * float64(l.Repeats)
			}
			if ir.TotalEnergyPJ != wantE || ir.TotalCycles != wantC {
				t.Errorf("totals not repeats-weighted: (%v, %v), want (%v, %v)",
					ir.TotalEnergyPJ, ir.TotalCycles, wantE, wantC)
			}
		})
	}
}

// TestScheduleNetworkIRFailFast drives the fail-fast policy through the IR
// path in both optimization directions: an unsolvable layer fails, and its
// failure cancels the sibling search, which classifies as sibling-cancel.
func TestScheduleNetworkIRFailFast(t *testing.T) {
	// MinUtilization 2 is unsatisfiable: the tiny layer fails immediately
	// while the big sibling is still searching under valid options... but
	// options are shared. Instead: a layer whose nil workload errors at
	// once, against a big sibling that needs real search time.
	big := sunstone.ResNet18Layers[1] // conv2_x, 56x56x64: a long search
	bigNet, err := sunstone.FromConvShapes("pair", []sunstone.ConvShape{big}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name string
		opt  sunstone.Options
	}{
		{"bottom-up", sunstone.Options{Direction: sunstone.BottomUp}},
		{"top-down", sunstone.Options{Direction: sunstone.TopDown}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			net := &sunstone.Network{
				Name: "pair",
				Layers: []sunstone.Layer{
					{Name: "bad", Workload: nil, Repeats: 1}, // fails instantly
					bigNet.Layers[0],
				},
			}
			sched, err := sunstone.NewEngine().ScheduleNetwork(
				context.Background(), net, sunstone.Conventional(),
				sunstone.NetworkOptions{Options: dir.opt})
			if err == nil {
				t.Fatal("expected the bad layer to fail the schedule")
			}
			if len(sched.Layers) != 2 || sched.Layers[0].Err == nil {
				t.Fatalf("bad layer missing its error: %+v", sched.Layers)
			}
			if sched.Failed == 0 {
				t.Error("Failed counter not incremented")
			}
			if cause := sunstone.CauseOf(sched.Layers[1].Err); sched.Layers[1].Err != nil &&
				cause != sunstone.CauseSiblingCancel {
				t.Errorf("sibling classified as %q, want %q", cause, sunstone.CauseSiblingCancel)
			}
		})
	}
}

// TestNetworkScheduleSerdeRoundTrip: a fused schedule's summary — totals,
// per-layer entries, group structure, failure messages — survives an
// encode/decode round trip under the stamped format, and the legacy
// headerless array still reads as a layer-per-entry schedule.
func TestNetworkScheduleSerdeRoundTrip(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net,
		sunstone.Tiny(1024), quickNetOpt(sunstone.Options{}), sunstone.FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sunstone.EncodeNetworkSchedule(&sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"format": "sunstone/v1"`) {
		t.Error("encoded schedule missing the format stamp")
	}
	back, err := sunstone.DecodeNetworkSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Network != sched.Network || back.Fused != sched.Fused ||
		back.TotalEnergyPJ != sched.TotalEnergyPJ || back.TotalCycles != sched.TotalCycles ||
		back.EDP != sched.EDP || back.UnfusedEDP != sched.UnfusedEDP {
		t.Errorf("summary did not round-trip:\nenc %+v\ndec %+v", sched, back)
	}
	if len(back.Groups) != len(sched.Groups) {
		t.Fatalf("groups: %d != %d", len(back.Groups), len(sched.Groups))
	}
	for i, g := range sched.Groups {
		b := back.Groups[i]
		if b.Start != g.Start || b.End != g.End || b.PinLevel != g.PinLevel ||
			b.EnergyPJ != g.EnergyPJ || b.Cycles != g.Cycles || len(b.Layers) != len(g.Layers) {
			t.Errorf("group %d did not round-trip: %+v vs %+v", i, b, g)
		}
	}
	if len(back.Layers) != len(sched.Layers) {
		t.Fatalf("layers: %d != %d", len(back.Layers), len(sched.Layers))
	}
	for i, l := range sched.Layers {
		b := back.Layers[i]
		if b.Layer != l.Layer || b.Result.Report.EnergyPJ != l.Result.Report.EnergyPJ ||
			b.Result.Report.Cycles != l.Result.Report.Cycles {
			t.Errorf("layer %d did not round-trip: %+v vs %+v", i, b, l)
		}
	}

	// Headerless legacy form: a bare array of layer entries.
	legacy := []byte(`[
		{"layer": "conv1", "repeats": 2, "energy_pj": 10, "cycles": 5, "edp": 50},
		{"layer": "conv2", "error": "search: no feasible candidate"}
	]`)
	ls, err := sunstone.DecodeNetworkSchedule(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Fused || len(ls.Groups) != 0 {
		t.Error("headerless schedule must stay layer-per-entry (unfused)")
	}
	if len(ls.Layers) != 2 || ls.Layers[0].Repeats != 2 || ls.Layers[1].Err == nil {
		t.Errorf("headerless layers mis-decoded: %+v", ls.Layers)
	}
	if ls.TotalEnergyPJ != 20 || ls.TotalCycles != 10 || ls.EDP != 200 || ls.Failed != 1 {
		t.Errorf("headerless totals: %+v", ls)
	}

	// Unknown stamps are rejected.
	if _, err := sunstone.DecodeNetworkSchedule([]byte(`{"format": "sunstone/v9", "network": "x"}`)); err == nil {
		t.Error("unknown format accepted")
	}
}
