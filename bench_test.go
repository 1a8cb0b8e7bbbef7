// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), plus micro-benchmarks of Sunstone's stages.
//
// The figure benchmarks run the experiment drivers in quick mode (subset of
// layers, scaled search budgets — see internal/experiments) and report the
// headline quantities as custom metrics:
//
//	go test -bench=. -benchmem ./...
//
// For the full-budget regeneration recorded in EXPERIMENTS.md, run
// `go run ./cmd/experiments -exp all`.
package sunstone_test

import (
	"context"
	"fmt"
	"testing"

	"sunstone"
	"sunstone/internal/core"
	"sunstone/internal/experiments"
	"sunstone/internal/factor"
	"sunstone/internal/tensor"
	"sunstone/internal/tile"
	"sunstone/internal/unroll"
)

func quickCfg() experiments.Config { return experiments.Config{Quick: true, Seed: 1} }

// BenchmarkTable1SpaceSize regenerates the per-tool mapping-space size
// comparison (Table I).
func BenchmarkTable1SpaceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Table1()
		if len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Reuse regenerates the reuse-inference table (Table III).
func BenchmarkTable3Reuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6NonDNN regenerates Figs. 6a/6b: MTTKRP/TTMc/SDDMM EDP and
// time-to-solution, Sunstone vs Timeloop, conventional accelerator.
func BenchmarkFig6NonDNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiments.Fig6(quickCfg())
		sums := experiments.Summarize(runs)
		for _, s := range sums {
			if s.Tool == "TL-slow" {
				b.ReportMetric(s.GeomeanEDPRel, "TLslow-EDP-vs-sun")
				b.ReportMetric(s.TotalSeconds, "TLslow-sec")
			}
			if s.Tool == "Sunstone" {
				b.ReportMetric(s.TotalSeconds, "sun-sec")
			}
		}
	}
}

// BenchmarkFig7InceptionWU regenerates Figs. 7a/7b: Inception-v3 weight
// update (batch 16), all five baselines, invalid mappings flagged.
func BenchmarkFig7InceptionWU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiments.Fig7(quickCfg())
		sums := experiments.Summarize(runs)
		for _, s := range sums {
			switch s.Tool {
			case "dMaze-fast":
				b.ReportMetric(float64(s.Invalid), "dMaze-invalid")
			case "INTER":
				b.ReportMetric(s.GeomeanEDPRel, "INTER-EDP-vs-sun")
			}
		}
	}
}

// BenchmarkFig8ResNetSimba regenerates Figs. 8a/8b: ResNet-18 (batch 16) on
// the Simba-like machine, Sunstone vs Timeloop vs CoSA.
func BenchmarkFig8ResNetSimba(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiments.Fig8(quickCfg())
		sums := experiments.Summarize(runs)
		for _, s := range sums {
			switch s.Tool {
			case "CoSA":
				b.ReportMetric(float64(s.Invalid), "CoSA-invalid")
			case "TL-fast":
				b.ReportMetric(s.GeomeanEDPRel, "TL-EDP-vs-sun")
			}
		}
	}
}

// BenchmarkTable6OptOrder regenerates the optimization-order study (Table
// VI): intra-level orders and bottom-up vs top-down space sizes.
func BenchmarkTable6OptOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6(quickCfg())
		if len(rows) != 4 {
			b.Fatal("want 4 rows")
		}
		b.ReportMetric(float64(rows[2].SpaceSize), "bottomup-space")
		b.ReportMetric(float64(rows[3].SpaceSize), "topdown-space")
	}
}

// BenchmarkFig9Overheads regenerates the tiling/unrolling overhead analysis
// (Figs. 9a/9b) on the DianNao-like machine.
func BenchmarkFig9Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalNaivePJ/r.TotalOptimizedPJ, "naive/opt-energy")
		b.ReportMetric(100*r.InstrFraction, "instr-%")
		b.ReportMetric(100*r.ReorderFraction, "reorder-%")
	}
}

// --- Component micro-benchmarks ---

// BenchmarkOptimizeConvConventional measures one full Sunstone search on a
// representative ResNet-18 layer, conventional accelerator, across worker
// pool sizes. The threads=1 sub-benchmark is the serial baseline; the
// threads=N ratios are the intra-search parallel speedup (results are
// bit-identical at every thread count — see TestParallelParity).
func BenchmarkOptimizeConvConventional(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeConvConventionalTelemetry is the same search with the
// full telemetry surface on — a trace in the context and a progress sink —
// so the ns/op delta against BenchmarkOptimizeConvConventional is the
// observability overhead (budget: < 10%, see DESIGN.md).
func BenchmarkOptimizeConvConventionalTelemetry(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	var events int
	opt := sunstone.Options{Progress: func(sunstone.ProgressEvent) { events++ }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sunstone.WithTrace(context.Background(), sunstone.NewTrace())
		if _, err := sunstone.Solve(ctx, sunstone.Problem{Workload: w, Arch: a}, opt); err != nil {
			b.Fatal(err)
		}
	}
	if events == 0 {
		b.Fatal("progress sink never fired")
	}
}

// BenchmarkOptimizeConvSimba measures a search on the deeper Simba
// hierarchy (two spatial levels, bypass) — the scalability case. The
// cache-hit-rate metric tracks how much of the search's evaluation load the
// memoization layer absorbs.
func BenchmarkOptimizeConvSimba(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Simba()
	b.ResetTimer()
	var hits, misses uint64
	for i := 0; i < b.N; i++ {
		res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
		if err != nil {
			b.Fatal(err)
		}
		hits += res.Stats.EvalCacheHits
		misses += res.Stats.EvalCacheMisses
	}
	if total := hits + misses; total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "cache-hit-%")
	}
}

// BenchmarkAnalyticalLayer measures the analytical seeding + bound layer on
// the headline Simba conv search: the on/off ns/op ratio is the wall-clock
// win, and the evaluated/op metric pins the candidate-evaluation reduction
// (the PR 8 acceptance bar: ≥30% fewer with the layer on, at equal-or-better
// EDP — the EDP metric is reported on both arms for the parity check).
func BenchmarkAnalyticalLayer(b *testing.B) {
	w := sunstone.Conv2D("conv", 4, 64, 64, 28, 28, 3, 3, 1, 1)
	a := sunstone.Simba()
	for _, arm := range []struct {
		name  string
		study *core.Study
	}{
		{"on", nil},
		{"off", &core.Study{NoAnalytical: true}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var evaluated uint64
			var edp float64
			for i := 0; i < b.N; i++ {
				res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{Study: arm.study})
				if err != nil {
					b.Fatal(err)
				}
				evaluated += res.Stats.Evaluated
				edp = res.Report.EDP
			}
			b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
			b.ReportMetric(edp, "EDP")
		})
	}
}

// BenchmarkNetworkFused schedules the transformer GEMM chain whole-network
// in both modes — per-layer (max group 1) and fusion-aware — and reports
// the network EDP each lands on: the fused/unfused gap is the PR 9
// acceptance bar (fused strictly lower on this preset).
func BenchmarkNetworkFused(b *testing.B) {
	net := sunstone.TransformerChain(64, 64, 256)
	a := sunstone.Conventional()
	opt := sunstone.Options{BeamWidth: 4, TilesPerStep: 8, UnrollsPerStep: 1}
	for _, arm := range []struct {
		name     string
		maxGroup int
	}{
		{"unfused", 1},
		{"fused", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var edp float64
			for i := 0; i < b.N; i++ {
				sched, err := sunstone.NewEngine().ScheduleNetworkFused(context.Background(), net, a, opt,
					sunstone.FusionOptions{MaxGroup: arm.maxGroup})
				if err != nil {
					b.Fatal(err)
				}
				edp = sched.EDP
			}
			b.ReportMetric(edp, "EDP")
		})
	}
}

// BenchmarkOptimizeMTTKRP measures a non-DNN kernel search.
func BenchmarkOptimizeMTTKRP(b *testing.B) {
	w := sunstone.MTTKRP("mttkrp_nell2", 12092, 9184, 28818, 32)
	a := sunstone.Conventional()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateMapping measures one cost-model evaluation (the inner
// loop of every mapper).
func BenchmarkEvaluateMapping(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := res.Mapping
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sunstone.Evaluate(m)
		if !rep.Valid {
			b.Fatal("invalid")
		}
	}
}

// BenchmarkEvaluateEDP measures one scalar fast-path evaluation on the
// memoized path (same mapping every iteration — a cache hit after the first
// call). Steady state must be allocation-free: 0 allocs/op.
func BenchmarkEvaluateEDP(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := res.Mapping
	ev := sunstone.NewCostSession(w, a).NewEvaluator()
	ev.EvaluateEDP(m) // warm: the first call pays the cache insert
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, valid := ev.EvaluateEDP(m); !valid {
			b.Fatal("invalid")
		}
	}
}

// BenchmarkEvaluateEDPUncached measures the raw scalar compute path with the
// memoization layer bypassed — the true cost of one model evaluation. Also
// 0 allocs/op.
func BenchmarkEvaluateEDPUncached(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := res.Mapping
	ev := sunstone.NewCostSession(w, a).NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, valid := ev.EvaluateEDPUncached(m); !valid {
			b.Fatal("invalid")
		}
	}
}

// BenchmarkEngineReuse quantifies what a long-lived Engine buys: the cold
// case pays the full per-problem compilation (ordering trie, ladder tables,
// cost-session tables, analytic seed) and searches with an empty evaluation
// memo on every iteration; the warm case reuses one Engine's compiled
// artifacts and warmed memo across iterations. The warm/cold ns/op ratio is
// the Engine-reuse speedup.
func BenchmarkEngineReuse(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sunstone.NewEngine().Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := sunstone.NewEngine()
		if _, err := eng.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTileEnumerate walks the tiling tree the way the search does — one
// reused tile.Walker, factor-vector probes, memoized ladders — over a small
// and a large fitting region. allocs/op must not depend on nodes/op: the walk
// allocates nothing per visited node (and nothing at all once the walker's
// buffers have grown).
func BenchmarkTileEnumerate(b *testing.B) {
	ladder := factor.Ladder(720, tile.DefaultMinLadderDivisors)
	for _, capacity := range []int{64, 1 << 16} {
		v := tile.Vec{
			Dims:          []tensor.Dim{"C", "K", "P", "Q"},
			Quota:         []int{720, 720, 720, 720},
			Fits:          func(fs []int) bool { return fs[0]*fs[1]+fs[1]*fs[2]*fs[3]+fs[0]*fs[2]*fs[3] <= capacity },
			Ladder:        func(int, int) []int { return ladder },
			MaxCandidates: 8,
		}
		var wk tile.Walker
		_, stats := wk.Walk(v)
		b.Run(fmt.Sprintf("nodes=%d", stats.NodesVisited), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wk.Walk(v)
			}
			b.ReportMetric(float64(stats.NodesVisited), "nodes/op")
		})
	}
}

// BenchmarkUnrollEnumerate is the same for the unrolling enumeration: a
// 16-wide and a 1024-wide fanout over four dimensions.
func BenchmarkUnrollEnumerate(b *testing.B) {
	ladders := map[int][]int{}
	for _, fanout := range []int{16, 1024} {
		v := unroll.Vec{
			Dims:      []tensor.Dim{"C", "K", "P", "Q"},
			Quota:     []int{720, 720, 720, 720},
			Reduction: []bool{true, false, false, false},
			Ladder: func(n, minDivisors int) []int {
				if ladders[n] == nil {
					ladders[n] = factor.Ladder(n, minDivisors)
				}
				return ladders[n]
			},
			Fanout:                fanout,
			MinUtilization:        0.5,
			AllowSpatialReduction: true,
			MaxCandidates:         6,
		}
		var wk unroll.Walker
		_, stats := wk.Walk(v)
		b.Run(fmt.Sprintf("nodes=%d", stats.NodesVisited), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wk.Walk(v)
			}
			b.ReportMetric(float64(stats.NodesVisited), "nodes/op")
		})
	}
}

// BenchmarkDianNaoCompileSimulate measures the Section V-D pipeline on one
// layer.
func BenchmarkDianNaoCompileSimulate(b *testing.B) {
	w := sunstone.ResNet18Layers[1].Inference(1)
	a := sunstone.DianNao()
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sunstone.RunOnDianNao(res.Mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks: quantify the design choices DESIGN.md calls out ---

// ablate runs one optimizer configuration on a representative layer and
// reports the resulting EDP and examined-space size as metrics.
func ablate(b *testing.B, opt sunstone.Options) {
	w := sunstone.ResNet18Layers[1].Inference(16)
	a := sunstone.Conventional()
	for i := 0; i < b.N; i++ {
		res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.EDP, "EDP")
		b.ReportMetric(float64(res.SpaceSize), "space")
	}
}

// BenchmarkAblationDefault is the reference configuration.
func BenchmarkAblationDefault(b *testing.B) { ablate(b, sunstone.Options{}) }

// BenchmarkAblationNoPolish disables the greedy local refinement (a study
// switch, core.Study, that the public Options cannot name).
func BenchmarkAblationNoPolish(b *testing.B) {
	ablate(b, sunstone.Options{Study: &core.Study{NoPolish: true}})
}

// BenchmarkAblationBeam4 narrows the inter-level beam to 4.
func BenchmarkAblationBeam4(b *testing.B) { ablate(b, sunstone.Options{BeamWidth: 4}) }

// BenchmarkAblationBeam64 widens the beam to 64 (diminishing returns
// expected — the pruning principles, not the beam, carry the search).
func BenchmarkAblationBeam64(b *testing.B) { ablate(b, sunstone.Options{BeamWidth: 64}) }

// BenchmarkAblationLowUtilization drops the high-throughput unrolling
// threshold, admitting underutilized spatial assignments.
func BenchmarkAblationLowUtilization(b *testing.B) {
	ablate(b, sunstone.Options{MinUtilization: 0.05})
}

// BenchmarkDataflowSpread regenerates the intro's motivation study: the EDP
// spread between fixed dataflows and the searched mapping.
func BenchmarkDataflowSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DataflowSpread(quickCfg())
		var base, worst float64 = 0, 1
		for _, r := range rows {
			if r.Dataflow == "searched (Sunstone)" {
				base = r.EDP
			}
		}
		for _, r := range rows {
			if r.Valid && r.EDP/base > worst {
				worst = r.EDP / base
			}
		}
		b.ReportMetric(worst, "worst-fixed-vs-searched")
	}
}
